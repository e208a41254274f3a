"""Run one ``kacdepth`` CLI call with spans around each layer's public calls.

Usage: python3 perfbench/trace_cli.py OUT_PREFIX CLI_ARGS...

The wrappers are installed from outside the package, at every binding of
each wrapped function: module globals (so ``cli.toric_kac_chain`` and
``moment.toric_kac_chain`` are both traced) and class attributes (so
``__rmul__`` is traced with ``__mul__``).  ``lru_cache`` objects are wrapped,
not replaced, so their caching is kept and a cache hit shows as a short span.

Spans (key, parent, start, end, outermost-of-its-key) are kept in memory and
written at exit to ``OUT_PREFIX.bin``; ``OUT_PREFIX.json`` carries the key
names, the work counters and the import time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter

from workloads import coords


# (module, attribute path, span key, work counter): each counter maps the
# bound call arguments and the result to (counter name, amount).
WRAPS = [
    ("laurent", "LaurentPoly.__mul__", "laurent.poly_mul", None),
    ("laurent", "LaurentPoly.__add__", "laurent.poly_add", None),
    ("laurent", "LaurentPoly.__sub__", "laurent.poly_sub", None),
    ("laurent", "LaurentPoly.__rsub__", "laurent.poly_sub", None),
    ("laurent", "LaurentPoly.__pow__", "laurent.poly_pow", None),
    ("laurent", "poly_divmod", "laurent.poly_divmod", None),
    ("laurent", "poly_gcd", "laurent.poly_gcd", None),
    ("laurent", "RatFunc.__init__", "laurent.ratfunc_init", None),
    ("laurent", "RatFunc.__add__", "laurent.ratfunc_add", None),
    ("laurent", "RatFunc.__sub__", "laurent.ratfunc_sub", None),
    ("laurent", "RatFunc.__rsub__", "laurent.ratfunc_sub", None),
    ("laurent", "RatFunc.__mul__", "laurent.ratfunc_mul", None),
    ("laurent", "RatFunc.__truediv__", "laurent.ratfunc_div", None),
    ("laurent", "RatFunc.__rtruediv__", "laurent.ratfunc_div", None),
    ("laurent", "RatFunc.__pow__", "laurent.ratfunc_pow", None),
    ("laurent", "RatFunc.series_at_infinity", "laurent.ratfunc_series", None),
    ("series", "TSeries.__mul__", "series", None),
    ("series", "TSeries.__pow__", "series", None),
    ("series", "TSeries.exp", "series", None),
    ("series", "TSeries.log", "series", None),
    ("plethysm", "adams", "plethysm.exp_log", None),
    ("plethysm", "pleth_exp", "plethysm.exp_log", None),
    ("plethysm", "pleth_log", "plethysm.exp_log", None),
    ("quiver", "Quiver.spanning_trees", "quiver.spanning_trees", None),
    ("oring", "ORing.__init__", "oring.ring_build", None),
    ("toric", "toric_kac_chain", "toric.chain",
     lambda a, r: ("toric.chain.masks", 1 << a["quiver"].narrows)),
    ("toric", "tree_stratum_census", "toric.trees",
     lambda a, r: ("toric.trees.strata", len(r))),
    ("toric", "toric_kac_trees", "toric.trees", None),
    ("toric", "asymptotic_kac", "toric.asymptotic", None),
    ("toric", "asymptotic_moment", "toric.asymptotic", None),
    ("toric", "toric_orbit_count", "toric.orbit",
     lambda a, r: ("toric.orbit.points", a["p"] ** (a["alpha"] * a["quiver"].narrows))),
    ("srcomplex", "order_complex", "srcomplex.order_complex",
     lambda a, r: ("srcomplex.facets", len(r.facets))),
    ("srcomplex", "lex_shelling", "srcomplex.shelling", None),
    ("srcomplex", "hilbert_specialized", "srcomplex.hilbert", None),
    ("srcomplex", "positivity_certificate", "srcomplex.certificate", None),
    ("moment", "moment_fiber_count", "moment.fiber",
     lambda a, r: ("moment.fiber.points", a["p"] ** (a["alpha"] * coords(a["quiver"].arrows, a["rank"])))),
    ("moment", "e_series_check", "moment.e_series", None),
    ("rank", "moment_total", "rank.recursion", None),
    ("rank", "rank2_class_sums", "rank.recursion", None),
    ("rank", "rank3_class_sums", "rank.recursion", None),
    ("rank", "closed_form_rank2", "rank.closed_form", None),
    ("rank", "closed_form_rank3", "rank.closed_form", None),
    ("cli", "main", "cli", None),
]


class Tracer:
    """Span and counter store for one process."""

    def __init__(self) -> None:
        self.keys: list[str] = []
        self.key_index: dict[str, int] = {}
        self.span_key = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")
        self.stack = [-1]
        self.depth: list[int] = []
        self.counters: dict[str, int] = {}

    def wrap(self, fn, key: str, counter=None):
        if key not in self.key_index:
            self.key_index[key] = len(self.keys)
            self.keys.append(key)
            self.depth.append(0)
        k = self.key_index[key]
        span_key, parent, start, end, outer = (
            self.span_key, self.parent, self.start, self.end, self.outer)
        stack, depth = self.stack, self.depth
        signature = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            i = len(start)
            d = depth[k]
            span_key.append(k)
            parent.append(stack[-1])
            outer.append(d == 0)
            end.append(0.0)
            stack.append(i)
            depth[k] = d + 1
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                depth[k] = d
                stack.pop()
            if counter is not None:
                name, amount = counter(signature.bind(*args, **kwargs).arguments, result)
                self.counters[name] = self.counters.get(name, 0) + amount
            return result

        functools.update_wrapper(traced, fn)
        return traced

    def write(self, prefix: str, extra: dict) -> None:
        with open(prefix + ".bin", "wb") as fh:
            for arr in (self.span_key, self.parent, self.start, self.end, self.outer):
                arr.tofile(fh)
        meta = dict(extra, keys=self.keys, spans=len(self.start), counters=self.counters)
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def _resolve(module, path: str):
    owner = module
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return vars(owner)[name]


def install(tracer: Tracer) -> list:
    """Wrap every binding of every function in WRAPS; return the originals."""
    wrappers: dict[int, tuple[object, object]] = {}
    for mod_name, path, key, counter in WRAPS:
        original = _resolve(sys.modules[f"kacdepth.{mod_name}"], path)
        wrappers[id(original)] = (original, tracer.wrap(original, key, counter))
    for namespace in _namespaces(_package_modules()):
        for name, value in list(vars(namespace).items()):
            pair = wrappers.get(id(value))
            if pair is not None and pair[0] is value:
                setattr(namespace, name, pair[1])
    return [original for original, _ in wrappers.values()]


def unwrapped_bindings(originals: list) -> list[str]:
    """Bindings in the package that still hold one of the original functions."""
    ids = {id(o) for o in originals}
    return [
        f"{namespace.__name__}.{name}"
        for namespace in _namespaces(_package_modules())
        for name, value in vars(namespace).items()
        if id(value) in ids
    ]


def _package_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "kacdepth" or n.startswith("kacdepth.")]


def _namespaces(modules):
    """The package modules and the classes they define."""
    for module in modules:
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


def main(argv: list[str]) -> int:
    prefix, cli_args = argv[0], argv[1:]
    t0 = perf_counter()
    import kacdepth.cli  # noqa: F401  (loads every layer module)

    import_s = perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    try:
        code = sys.modules["kacdepth.cli"].main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.write(prefix, {"import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
