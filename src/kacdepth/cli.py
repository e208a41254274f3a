"""Command-line driver: every computation and verification suite, with
machine-readable output; a process exits through ``run`` (see there).

Exit codes partition the failure modes: 0 all requested assertions hold,
1 a mathematical identity failed (the report carries the diff), 2 user
error (malformed quiver JSON, bad flags), 3 enumeration guard exceeded.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from functools import partial

from . import moment, poly, rank, srcomplex, toric
from . import quiver as quivers  # lazy, like the layers above; ``quiver`` names a handler's input
from .oring import DEFAULT_GUARD, GuardError, _check_prime, check_work

SCHEMA = "kacdepth/1"

# C-backed: _encode for scalars and empty containers, _encode_key for str
# keys (it raises TypeError on any other key)
_encode = json.JSONEncoder().encode
_encode_key = json.encoder.encode_basestring_ascii


def _dumps(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` byte for byte, without the pure-Python
    encoder that ``json`` runs whenever ``indent`` is set.  A list of dicts
    with one key sequence (``tuple(d)``: ``d.keys()`` views compare as sets)
    renders through one row template, and an object that recurs among their
    values is rendered once, keyed by ``id`` (every object is alive for the
    call).  Unlike ``json.dumps``, a non-``str`` dict key raises ``TypeError``."""
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        items = [
            _encode_key(key) + ": " + (repr(value) if type(value) is int else _dumps(value, inner))
            for key, value in obj.items()
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        keys = tuple(obj[0]) if len(obj) > 1 and isinstance(obj[0], dict) else ()
        if keys and all(isinstance(row, dict) and tuple(row) == keys for row in obj):
            cell = inner + "  "
            fields = [_encode_key(key).replace("%", "%%") + ": %s" for key in keys]
            template = "{" + cell + ("," + cell).join(fields) + inner + "}"
            values = [v for row in obj for v in row.values()]
            unique = {id(v): v for v in values}
            texts = {key: repr(v) if type(v) is int else _dumps(v, cell) for key, v in unique.items()}
            cells = iter([texts[id(v)] for v in values])
            items = [template % row for row in zip(*[cells] * len(keys))]  # len(keys) cells a row
        else:
            items = [repr(item) if type(item) is int else _dumps(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return repr(obj) if type(obj) is int else _encode(obj)


def _load_quiver(path: str) -> quivers.Quiver:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise quivers.QuiverFormatError(f"cannot read quiver file {path}: {exc}") from exc
    return quivers.Quiver.from_json(data)


def _parse_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part != ""]


# ----------------------------------------------------------------------
# subcommand handlers: (args, quiver) -> (body, ok, text).  They call the
# library through module globals (``toric.toric_kac_chain``), so rebinding a
# global reaches them all, and a lazily registered layer is executed only when
# a handler first calls into it.


def _primes(args) -> list[int]:
    primes = [2] if args.p is None else _parse_ints(args.p)
    if not primes:
        raise ValueError("--p lists no primes")
    return primes


def _kac(args, quiver: quivers.Quiver):
    chain = toric.toric_kac_chain(quiver, args.alpha, guard=args.guard)
    body = {
        "alpha": args.alpha,
        "quiver": quiver.to_json(),
        "polynomial": str(chain),
        "polynomial_triples": chain.to_triples(),
    }
    text = [f"A(alpha={args.alpha}) = {chain}"]
    if quiver.is_connected():
        census = toric.tree_stratum_census(quiver, args.alpha, guard=args.guard)
        trees = toric.census_polynomial(census)
        body["tree_polynomial"] = str(trees)
        body["census"] = [{"tree": a, "valuation": v, "exponent": n} for a, v, n in census]
        ok = chain == trees
        text.append(f"tree route        = {trees}")
        text.append(f"strata            = {len(census)}")
        text.append(f"routes agree      = {ok}")
        return body, ok, text
    # no indecomposables; expose the per-component counts whose product
    # enters the partition sums of the fiber identities
    product = poly.LaurentPoly.one()
    body["components"] = []
    text.append("(disconnected quiver: no indecomposables, tree route skipped)")
    for block in quiver.components():
        part = toric.toric_kac_chain(quiver.restrict_vertices(block), args.alpha, guard=args.guard)
        product = product * part
        body["components"].append({"vertices": list(block), "polynomial": str(part)})
        text.append(f"component {list(block)}: {part}")
    body["component_product"] = str(product)
    text.append(f"component product  = {product}")
    return body, chain.is_zero(), text


def _asymptotic(args, quiver: quivers.Quiver):
    a_q = toric.asymptotic_kac(quiver, guard=args.guard)
    b_q = toric.asymptotic_moment(quiver, guard=args.guard)
    body = {
        "quiver": quiver.to_json(),
        "A": str(a_q),
        "A_json": a_q.to_json(),
        "B": str(b_q),
        "B_json": b_q.to_json(),
    }
    return body, True, [f"A_Q = {a_q}", f"B_mu = {b_q}"]


def _exp_identity(args, quiver: quivers.Quiver):
    bound = tuple(_parse_ints(args.bound)) if args.bound else (1,) * quiver.nvertices
    reports = moment.verify_exp_identity(quiver, _primes(args), args.alpha, bound, guard=args.guard)
    text = [
        f"exp-identity p={r['prime']} alpha={r['alpha']}: "
        + ("ok" if r["equal"] else "FAILED")
        for r in reports
    ]
    for r in reports:
        for row in r["rows"]:
            if not row["equal"]:
                text.append(f"  rank {row['rank']}: lhs={row['lhs']} rhs={row['rhs']}")
    return {"reports": reports}, all(r["equal"] for r in reports), text


def _generic_fiber(args, quiver: quivers.Quiver):
    if not args.lam:
        raise quivers.QuiverFormatError("generic-fiber requires --lam")
    lam = _parse_ints(args.lam)
    reports = moment.verify_generic_fiber(quiver, lam, _primes(args), args.alpha, guard=args.guard)
    text = [
        f"generic-fiber p={r['prime']} alpha={r['alpha']}: lhs={r['lhs']} rhs={r['rhs']} "
        + ("ok" if r["equal"] else "FAILED")
        for r in reports
    ]
    return {"reports": reports}, all(r["equal"] for r in reports), text


def _thm41(args, quiver: quivers.Quiver):
    report = srcomplex.verify_hilbert_identity(quiver, guard=args.guard)
    text = [
        f"asymptotic count   = {report['lhs']}",
        f"Hilbert route      = {report['rhs']}",
        f"equal              = {report['equal']}",
    ]
    return report, report["equal"], text


def _shelling(args, quiver: quivers.Quiver):
    cert = srcomplex.positivity_certificate(quiver, guard=args.guard)
    body = {"facets": len(cert["terms"]), "certificate": cert["terms"], "total": cert["total"]}
    if "single_denominator" in cert:
        body["single_denominator"] = cert["single_denominator"]
    text = [
        f"facets              = {body['facets']}",
        f"certificate terms   = {len(cert['terms'])}",
        f"sum matches faces   = {cert['matches_face_sum']}",
        f"total               = {cert['total']}",
    ]
    return body, cert["matches_face_sum"], text


def _rank_table(args, quiver: None):
    g = args.g
    rows, text, ok = [], [], True
    for a, polys, routes in rank.rank_table(g, args.alpha, guard=args.guard):
        for r, poly in enumerate(polys, start=1):
            rows.append({"g": g, "r": r, "alpha": a, "polynomial": str(poly)})
            text.append(f"A_{{{g},{r},{a}}} = {poly}")
        if not all(agrees for _, _, agrees in routes[:2]):
            text.append(f"  closed-form mismatch at alpha={a}")
        for _, _, agrees in routes[2:]:
            text.append(f"  reference table match (r=3): {agrees}")
        ok = ok and all(agrees for _, _, agrees in routes)
    return {"rows": rows}, ok, text


def _e_series(args, quiver: quivers.Quiver):
    report = moment.e_series_check(quiver, args.alpha, args.mode, args.order, guard=args.guard)
    text = [
        f"mode={args.mode} alpha={args.alpha} order={args.order}: "
        + ("ok" if report["equal"] else "FAILED")
    ] + [
        f"  z^{row['exponent']}: lhs={row['lhs']} rhs={row['rhs']}"
        for row in report["rows"] if not row["equal"]
    ]
    return report, report["equal"], text


def _counts(primes: list[int], check, count) -> list[dict]:
    """Rows {"p", "count"}: every prime's estimate (``check``), then primality, then count."""
    for p in primes:
        check(p)
    for p in primes:
        _check_prime(p)
    return [{"p": p, "count": count(p)} for p in primes]


def _orbit_count(args, quiver: quivers.Quiver):
    primes = _primes(args)  # a malformed --p is reported before any guard error
    chain = toric.toric_kac_chain(quiver, args.alpha, guard=args.guard)
    rows = _counts(primes, lambda p: toric._check_orbit_work(quiver, p, args.alpha, args.guard),
                   lambda p: toric.toric_orbit_count(quiver, p, args.alpha, guard=args.guard))
    for row in rows:
        row["polynomial_at_p"] = chain.evaluate(row["p"])
    body = {"alpha": args.alpha, "polynomial": str(chain), "rows": rows}
    text = [f"p={r['p']}: orbits={r['count']} polynomial={r['polynomial_at_p']}" for r in rows]
    return body, all(r["count"] == r["polynomial_at_p"] for r in rows), text


def _moment_fiber(args, quiver: quivers.Quiver):
    ranks = tuple(_parse_ints(args.rank)) if args.rank else (1,) * quiver.nvertices
    primes = _primes(args)  # a malformed --p is reported before a malformed --lam
    lam = _parse_ints(args.lam) if args.lam else None
    rows = _counts(primes, lambda p: moment._check_fiber_work(quiver, ranks, p, args.alpha, args.guard, lam),
                   lambda p: moment.moment_fiber_count(quiver, ranks, p, args.alpha, lam, guard=args.guard))
    body = {"alpha": args.alpha, "rank": list(ranks), "rows": rows}
    return body, True, [f"p={r['p']}: fiber size {r['count']}" for r in rows]


# keyed by the report's "command": the subcommand and its positional target
HANDLERS = {
    "kac": _kac,
    "asymptotic": _asymptotic,
    "verify exp-identity": _exp_identity,
    "verify generic-fiber": _generic_fiber,
    "verify thm41": _thm41,
    "shelling": _shelling,
    "rank-table": _rank_table,
    "e-series": _e_series,
    "oracle orbit-count": _orbit_count,
    "oracle moment-fiber": _moment_fiber,
}


class _LazySubParsers(argparse._SubParsersAction):
    """Subparsers that add a parser's arguments (``fill``) only when argparse
    selects it: a call builds the flags of one leaf, not of all ten."""

    def add_parser(self, name, fill, **kwargs):
        parser = super().add_parser(name, **kwargs)
        vars(self).setdefault("fills", {})[name] = lambda: fill(parser)
        return parser

    def __call__(self, parser, namespace, values, option_string=None):
        self.fills.pop(values[0], lambda: None)()
        super().__call__(parser, namespace, values, option_string)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kacdepth",
        description="Exact quiver representation counts over truncated polynomial rings",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0, help="seed echoed into reports")
    vectors = {"p": "comma-separated primes", "bound": "rank truncation r1,r2,...",
               "rank": "rank vector r1,r2,...", "lam": "generic parameter l1,l2,..."}

    # each parser adds only the flags its handler reads
    def add_common(p, quiver=True, alpha=True, flags=()):
        if quiver:
            p.add_argument("--quiver", required=True, help="path to quiver JSON")
        if alpha:
            p.add_argument("--alpha", type=int, default=1, help="depth (>= 1)")
        p.add_argument("--guard", type=int, default=DEFAULT_GUARD)
        # accepted after the subcommand as well
        p.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
        for flag in flags:
            p.add_argument(f"--{flag}", help=vectors[flag])

    def targets(dest, leaves):
        def fill(p):
            sub = p.add_subparsers(dest=dest, required=True, action=_LazySubParsers)
            for name, kwargs in leaves.items():
                sub.add_parser(name, partial(add_common, **kwargs))
        return fill

    def rank_table(p):
        p.add_argument("--g", type=int, required=True)
        add_common(p, quiver=False)

    def e_series(p):
        add_common(p)
        p.add_argument("--mode", choices=("zero-fiber", "generic-fiber"), default="zero-fiber")
        p.add_argument("--order", type=int, default=10)

    no_alpha = partial(add_common, alpha=False)
    sub = parser.add_subparsers(dest="command", required=True, action=_LazySubParsers, prog="kacdepth")
    sub.add_parser("kac", add_common, help="toric count by chain and tree routes")
    sub.add_parser("asymptotic", no_alpha, help="depth limits A_Q and B_mu")
    identities = {"exp-identity": {"flags": ("p", "bound")}, "generic-fiber": {"flags": ("p", "lam")},
                  "thm41": {"alpha": False}}
    sub.add_parser("verify", targets("identity", identities), help="identity verification suites")
    sub.add_parser("shelling", no_alpha, help="shelling order and positivity certificate")
    sub.add_parser("rank-table", rank_table, help="one-vertex ranks 1..3 for g loops")
    sub.add_parser("e-series", e_series, help="graded-dimension series bookkeeping")
    oracles = {"orbit-count": {"flags": ("p",)}, "moment-fiber": {"flags": ("p", "rank", "lam")}}
    sub.add_parser("oracle", targets("oracle", oracles), help="brute-force enumeration oracles")
    # wrapped by hand, as Python 3.10-3.12 wrap it (3.13 keeps the ``...`` on the commands' line)
    indent = "\n" + " " * 16
    parser.usage = f"%(prog)s [-h] [--format {{text,json}}] [--seed SEED]{indent}{{{','.join(sub.choices)}}}{indent}..."
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    target = getattr(args, "identity", None) or getattr(args, "oracle", None)
    command = f"{args.command} {target}" if target else args.command
    try:
        quiver = _load_quiver(args.quiver) if "quiver" in args else None
        if quiver is not None:
            # every route builds per-vertex lists; refuse a count past the guard first
            check_work("vertex count", quiver.nvertices, args.guard)
        body, ok, text = HANDLERS[command](args, quiver)
    except (GuardError, quivers.QuiverFormatError, ValueError, ZeroDivisionError) as exc:
        refused = isinstance(exc, GuardError)  # the library's message names no flag
        print(f"error: {exc}{'; raise --guard' if refused else ''}", file=sys.stderr)
        return 3 if refused else 2
    if args.format == "json":
        report = {"schema": SCHEMA, "command": command, **body, "ok": ok, "text": text}
        print(_dumps({**report, "seed": args.seed}))
    else:
        for line in text:
            print(line)
    return 0 if ok else 1


def run() -> int:
    """The process entry (``python -m kacdepth.cli``, the ``kacdepth`` script): ``main``, then
    ``gc.freeze()``, as the shutdown collections skip frozen objects; in process, call ``main``."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
