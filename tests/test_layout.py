"""The library holds only what the CLI and the scripts use.

Every public name in ``kacdepth.__all__`` must be referenced (as a name, an
attribute or an import) from ``cli.py``, from ``scripts/*.py`` or from a
library module; ``__init__.py`` re-exports and does not count.  More widely,
every module-level name and non-dunder method in ``src/kacdepth`` must be
loaded from a library module or a script, or be bound by
``perfbench/trace_cli.WRAPS``.  A name only the tests need belongs under
``tests/`` (see ``tests/oracles.py``).  The ``ORing`` tables have no library
user outside ``oring.py``.
"""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import kacdepth
from kacdepth import Quiver

ROOT = Path(__file__).resolve().parents[1]
TRIANGLE = Quiver(3, ((0, 1), (1, 2), (0, 2)))


def _referenced_names(paths) -> set[str]:
    names: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_name_has_a_non_test_user():
    library = [p for p in (ROOT / "src" / "kacdepth").glob("*.py") if p.name != "__init__.py"]
    used = _referenced_names([*library, *(ROOT / "scripts").glob("*.py")])
    public = [n for n in kacdepth.__all__ if not n.startswith("__")]
    assert [n for n in public if n not in used] == []


def _defined_names(path) -> set[str]:
    """Module-level names and non-dunder method names defined in one file."""
    names: set[str] = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef):
            names |= {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if not n.startswith("__")}


def _loaded_names(paths) -> set[str]:
    names: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_library_name_has_a_non_test_user(monkeypatch):
    # a definition is no use; a load is, and so is a binding the benchmark
    # tracer wraps by (module, attribute path)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import trace_cli

    library = sorted((ROOT / "src" / "kacdepth").glob("*.py"))
    users = [p for p in library if p.name != "__init__.py"]
    used = _loaded_names([*users, *(ROOT / "scripts").glob("*.py")])
    used |= {part for _, path, _, _ in trace_cli.WRAPS for part in path.split(".")}
    unused = [(p.name, n) for p in library for n in sorted(_defined_names(p)) if n not in used]
    assert unused == []


def test_ring_tables_stay_in_oring():
    # the orbit count runs by Burnside's lemma; only the tests build ORing
    library = (ROOT / "src" / "kacdepth").glob("*.py")
    users = [p.name for p in library if p.name != "oring.py" and "ORing" in _referenced_names([p])]
    assert users == []


def test_traced_wrappers_resolve(monkeypatch):
    # perfbench/trace_cli.py wraps each (module, attribute) it lists through
    # vars(owner)[name]; a renamed or moved function would break every traced
    # benchmark job.  This only reads perfbench/.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import kacdepth.cli  # noqa: F401  (loads every layer module)
    import trace_cli

    for mod, path, _, _ in trace_cli.WRAPS:
        assert callable(trace_cli._resolve(sys.modules[f"kacdepth.{mod}"], path)), (mod, path)


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter on the package sources; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(TRIANGLE.to_json()), encoding="utf-8")
    return str(path)


# the source lines a kac process compiles: cli, oring, poly, quiver, toric
# and __init__
KAC_LINES = 1380

# the source lines of the whole library; like KAC_LINES, a ceiling that may
# only fall
LIBRARY_LINES = 2929

# the kacdepth layers a process has executed: LazyLoader swaps an unexecuted
# module's class for a subclass of ModuleType until its first attribute access
_EXECUTED = (
    "print(' '.join(sorted(n.split('.')[1] for n, m in sys.modules.items()\n"
    "                      if n.startswith('kacdepth.') and type(m) is types.ModuleType)))\n"
)


def test_cli_import_path_skips_dataclasses_and_loads_every_layer():
    # every job process pays for what ``import kacdepth.cli`` imports;
    # dataclasses alone pulled in inspect, ast, dis and tokenize
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import kacdepth.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    added = set(_python("-c", code).stdout.split())
    assert added.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize"})
    # every layer is registered (perfbench/trace_cli.py reads them all from
    # sys.modules), though a job executes only the ones it uses
    layers = {f"kacdepth.{p.stem}" for p in (ROOT / "src" / "kacdepth").glob("*.py")} - {"kacdepth.__init__"}
    assert len(layers) == 11 and layers <= added


def _layers_run_by(*argv: str) -> set[str]:
    """The layers a CLI call executes in a new process; it must exit 0."""
    run = (
        "import io, sys, types\n"
        "from contextlib import redirect_stdout\n"
        "import kacdepth.cli\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    code = kacdepth.cli.main(sys.argv[1:])\n"
        "print(code)\n"
    ) + _EXECUTED
    code, layers = _python("-c", run, *argv).stdout.splitlines()
    assert code == "0", argv
    return set(layers.split())


def test_each_subcommand_executes_only_its_layers(triangle_file):
    # a toric count forms no rational function: no laurent
    toric_only = {"cli", "oring", "poly", "quiver", "toric"}
    assert _layers_run_by("kac", "--quiver", triangle_file, "--alpha", "2") == toric_only
    assert _layers_run_by("oracle", "orbit-count", "--quiver", triangle_file, "--p", "2,3") == toric_only
    for argv in (["shelling"], ["verify", "thm41"], ["asymptotic"]):
        layers = _layers_run_by(*argv, "--quiver", triangle_file)
        assert layers.isdisjoint({"moment", "rank"}), argv
        # srcomplex reaches toric lazily, for the asymptotic side of thm41
        assert ("toric" in layers) == (argv != ["shelling"]), argv
    # quiver too is reached lazily, so rank-table, which reads no quiver, skips it
    rank_table = {"cli", "laurent", "oring", "plethysm", "poly", "rank", "series"}
    assert _layers_run_by("rank-table", "--g", "2", "--alpha", "2") == rank_table
    # the moment suites reach laurent, toric, plethysm, series and rank as
    # lazy modules; a fiber count alone runs none of them, and the generic
    # fiber forms no rational function
    fiber = {"cli", "moment", "oring", "poly", "quiver"}
    assert _layers_run_by("oracle", "moment-fiber", "--quiver", triangle_file, "--p", "3") == fiber
    fiber |= {"toric"}
    generic = ["--quiver", triangle_file, "--p", "5", "--lam=1,-2,1"]
    assert _layers_run_by("verify", "generic-fiber", *generic) == fiber
    fiber |= {"laurent"}
    assert _layers_run_by("e-series", "--quiver", triangle_file, "--alpha", "2") == fiber
    exp_identity = _layers_run_by("verify", "exp-identity", "--quiver", triangle_file)
    assert exp_identity == fiber | {"plethysm", "series"}
    assert _python("-c", "import sys, types\nimport kacdepth\n" + _EXECUTED).stdout == "\n"


# one CLI call: its exit code and which of fractions and decimal it imported
_FRACTIONS_RUN = (
    "import io, sys\n"
    "from contextlib import redirect_stdout\n"
    "import kacdepth.cli\n"
    "with redirect_stdout(io.StringIO()):\n"
    "    code = kacdepth.cli.main(sys.argv[1:])\n"
    "print(code, sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
)


def test_toric_counts_never_import_fractions(triangle_file):
    # fractions imports decimal, about 4 ms of every process start; the
    # integer counts of kac, the orbit count and the fiber count need neither
    for argv in (
        ["kac", "--alpha", "3"],
        ["oracle", "orbit-count", "--alpha", "2", "--p", "2,3"],
        ["oracle", "moment-fiber", "--alpha", "2", "--p", "2,3"],
    ):
        for fmt in ("text", "json"):
            proc = _python("-c", _FRACTIONS_RUN, *argv, "--quiver", triangle_file, "--format", fmt)
            assert proc.stdout == "0 []\n", (argv, fmt)


def test_rational_routes_import_fractions_only_for_the_rank_table(triangle_file):
    # the depth limits, the Hilbert series, the certificate and the E-series
    # divide only by denominators led by 1 or -1 and form no Fraction; the
    # rank table does (the plethystic logarithm divides by 2 and 3)
    quiver = ["--quiver", triangle_file, "--format", "json"]
    for argv in (
        ["asymptotic", *quiver],
        ["verify", "thm41", *quiver],
        ["shelling", *quiver],
        ["e-series", *quiver, "--alpha", "2", "--mode", "zero-fiber"],
        ["e-series", *quiver, "--alpha", "2", "--mode", "generic-fiber"],
    ):
        assert _python("-c", _FRACTIONS_RUN, *argv).stdout == "0 []\n", argv
    rank_table = _python("-c", _FRACTIONS_RUN, "rank-table", "--g", "2", "--alpha", "2", "--format", "json")
    assert rank_table.stdout == "0 ['decimal', 'fractions']\n"


def test_kac_compiles_at_most_its_pinned_line_count(triangle_file):
    # without a bytecode cache a kac job compiles every module it executes,
    # the package's __init__.py included: about a quarter of the job's time,
    # so this path must not silently regrow
    files = ["__init__", *_layers_run_by("kac", "--quiver", triangle_file, "--alpha", "2")]
    source = ROOT / "src" / "kacdepth"
    lines = sum(len((source / f"{name}.py").read_text(encoding="utf-8").splitlines()) for name in files)
    assert lines <= KAC_LINES, (lines, files)


def test_library_line_count_is_pinned():
    # each concept has one implementation, so the library's line count falls
    source = sorted((ROOT / "src" / "kacdepth").glob("*.py"))
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in source)
    assert lines <= LIBRARY_LINES, lines


def test_lazy_package_runs_clean_and_refuses_unknown_names(triangle_file):
    # ``cli`` is not registered lazily, so runpy does not warn that it was in
    # sys.modules before execution
    proc = _python("-W", "error", "-m", "kacdepth.cli", "kac", "--quiver", triangle_file)
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "routes agree      = True"
    with pytest.raises(ImportError):
        from kacdepth import nope  # noqa: F401
    assert all(getattr(kacdepth, name) is not None for name in kacdepth.__all__)


def _count_traced_calls(monkeypatch, keys) -> Counter:
    """Wrap every binding of the names trace_cli.WRAPS times under keys, as its
    install does, and count calls by key and by wrapped path.  This only reads
    perfbench/."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import kacdepth.cli  # noqa: F401  (loads every layer module)
    import trace_cli

    calls = Counter()
    targets = {}
    for mod, path, key, _ in trace_cli.WRAPS:
        if key in keys:
            targets[id(trace_cli._resolve(sys.modules[f"kacdepth.{mod}"], path))] = (key, path)

    def counting(fn, key, path):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            calls[path] += 1
            return fn(*args, **kwargs)
        return wrapper

    for namespace in trace_cli._namespaces(trace_cli._package_modules()):
        for name, value in list(vars(namespace).items()):
            if id(value) in targets:
                monkeypatch.setattr(namespace, name, counting(value, *targets[id(value)]))
    return calls


def test_rank_table_and_exp_identity_reach_the_traced_exp_log(monkeypatch):
    # perfbench/selftest.py expects the series and plethysm.exp_log spans on
    # the rank-table and exp-identity jobs; a refactor that routes around the
    # names trace_cli.WRAPS times under those keys fails here
    from kacdepth.moment import verify_exp_identity
    from kacdepth.rank import rank_table

    calls = _count_traced_calls(monkeypatch, ("series", "plethysm.exp_log"))
    assert [row[0] for row in rank_table(3, 2)] == [1, 2]
    assert calls["series"] and calls["plethysm.exp_log"]
    assert calls["TSeries.log"] and calls["pleth_log"]
    calls.clear()
    assert verify_exp_identity(TRIANGLE, [2], 1, (1, 1, 1))[0]["equal"]
    assert calls["series"] and calls["plethysm.exp_log"]
    assert calls["TSeries.exp"] and calls["pleth_exp"]


def test_shelling_and_thm41_reach_the_traced_srcomplex_spans(monkeypatch):
    # perfbench/selftest.py expects the srcomplex spans on the shelling job
    # and toric.asymptotic on the thm41 job; the Hilbert series builds no order
    # complex, so the certificate must still reach order_complex itself
    from kacdepth.srcomplex import positivity_certificate, verify_hilbert_identity

    keys = ("srcomplex.order_complex", "srcomplex.shelling", "srcomplex.hilbert", "toric.asymptotic")
    calls = _count_traced_calls(monkeypatch, keys)
    assert positivity_certificate(TRIANGLE)["matches_face_sum"]
    assert calls["order_complex"] and calls["lex_shelling"] and calls["hilbert_specialized"]
    assert all(calls[key] for key in keys[:3])
    calls.clear()
    assert verify_hilbert_identity(TRIANGLE)["equal"]
    assert calls["asymptotic_kac"] and calls["hilbert_specialized"]
    assert calls["toric.asymptotic"] and calls["srcomplex.hilbert"]
