"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that every job matches its pinned reference under two seeds (one
plain, one traced), that a corrupted reference is counted as a failure, that
each wrapper fires on a job known to call it and no binding is missed, that
``lru_cache`` still caches under the wrappers, and that a run prints every
metric of BENCHMARK.json with its unit.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import trace_cli
from workloads import WORKLOADS

# (span key, job): the job calls the key's functions, several of them only
# through a binding outside the defining module.
EXPECTED_SPANS = [
    ("cli", "kac/k4/a3"),
    ("laurent.poly_mul", "kac/k4/a3"),
    ("laurent.poly_add", "kac/k4/a3"),
    ("laurent.poly_pow", "kac/k4/a3"),
    ("quiver.spanning_trees", "kac/k4/a3"),
    ("toric.chain", "kac/k4/a3"),
    ("toric.trees", "kac/k4/a3"),
    ("laurent.poly_sub", "asymptotic/theta"),
    ("laurent.poly_divmod", "asymptotic/theta"),
    ("laurent.poly_gcd", "asymptotic/theta"),
    ("laurent.ratfunc_init", "asymptotic/theta"),
    ("laurent.ratfunc_add", "asymptotic/theta"),
    ("laurent.ratfunc_mul", "asymptotic/theta"),
    ("laurent.ratfunc_pow", "asymptotic/theta"),
    ("toric.asymptotic", "asymptotic/theta"),
    ("toric.asymptotic", "verify-thm41/theta"),  # srcomplex.asymptotic_kac
    ("laurent.ratfunc_sub", "shelling/kron6"),
    ("laurent.ratfunc_div", "shelling/kron6"),
    ("srcomplex.order_complex", "shelling/kron6"),
    ("srcomplex.shelling", "shelling/kron6"),
    ("srcomplex.hilbert", "shelling/kron6"),
    ("srcomplex.certificate", "shelling/kron6"),
    ("series", "rank-table/none/a5/g/3"),
    ("plethysm.exp_log", "rank-table/none/a5/g/3"),
    ("rank.recursion", "rank-table/none/a5/g/3"),
    ("rank.closed_form", "rank-table/none/a5/g/3"),
    ("moment.e_series", "e-series/k4/a3/mode/zero-fiber/order/10"),
    ("toric.chain", "e-series/k4/a3/mode/zero-fiber/order/10"),  # moment.toric_kac_chain
    ("laurent.ratfunc_series", "e-series/k4/a2/mode/generic-fiber/order/10"),
    ("toric.orbit", "oracle-orbit-count/kron2/a2/p2,3,5,7"),
    ("toric.chain", "oracle-orbit-count/kron2/a2/p2,3,5,7"),  # cli.toric_kac_chain
    ("oring.ring_build", "oracle-orbit-count/kron2/a2/p2,3,5,7"),
    ("moment.fiber", "oracle-moment-fiber/kron2/a3/p3/rank1,1"),
    ("moment.fiber", "verify-exp-identity/loop1/a2/p2/bound2"),
]


def require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_references_hold_for_two_seeds(work: Path) -> None:
    """Seed 1 plain and seed 2 traced: every job matches its reference,
    and every wrapper fires on the jobs listed in EXPECTED_SPANS."""
    references = run.load_references()
    fired: dict[str, set[str]] = {}
    for workload in WORKLOADS:
        for seed, traced in ((1, False), (2, True)):
            workdir = Path(tempfile.mkdtemp(dir=work))
            runner = run.Runner(workload, seed, references, workdir)
            trace_dir = workdir / "trace" if traced else None
            if trace_dir is not None:
                trace_dir.mkdir()
            runner.run_pass(trace_dir)
            require(not runner.failures, f"{workload} seed {seed}: {runner.failures}")
            if trace_dir is not None:
                for n, job in enumerate(runner.jobs):
                    _, _, _, calls = run.read_spans(str(trace_dir / f"{n:02d}"))
                    fired[job.id] = {k for k, c in calls.items() if c > 0}
    for key, job_id in EXPECTED_SPANS:
        require(key in fired[job_id], f"span {key} did not fire on {job_id}")
    keys = {key for _, _, key, _ in trace_cli.WRAPS}
    require(keys <= {key for key, _ in EXPECTED_SPANS}, "a wrapped key has no expected job")


def test_corrupted_reference_fails(work: Path) -> None:
    references = run.load_references()
    job_id = "kac/k4/a3"
    references[job_id] = dict(references[job_id], polynomial="q^1000")
    runner = run.Runner("chain-dp", 0, references, Path(tempfile.mkdtemp(dir=work)))
    runner.jobs = [job for job in runner.jobs if job.id == job_id]
    runner.run_pass()
    require(runner.attempted == 1 and len(runner.failures) == 1, f"{runner.failures}")
    require("pinned reference" in runner.failures[0]["reason"], runner.failures[0]["reason"])


def test_report_names_every_metric() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "fiber-oracles",
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        require(sorted(result) == ["attempted", "correct", "failed", "metrics"], str(sorted(result)))
        require(result["correct"] and result["failed"] == 0, str(result))
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        require(got == wanted, f"trace {trace}: {got} != {wanted}")
        for name, unit in wanted.items():
            require(any(line.strip().startswith(f"{name} = ") and line.endswith(f" {unit}")
                        for line in lines), f"{name} not printed with unit {unit}")


def test_wrappers_cover_every_binding() -> None:
    """Runs last: it installs the wrappers in this process."""
    sys.path.insert(0, str(run.ROOT / "src"))
    import kacdepth.cli  # noqa: F401

    toric = sys.modules["kacdepth.toric"]
    cache = toric.asymptotic_kac
    originals = trace_cli.install(trace_cli.Tracer())
    require(trace_cli.unwrapped_bindings(originals) == [], str(trace_cli.unwrapped_bindings(originals)))
    cli = sys.modules["kacdepth.cli"]
    require(cli.toric_kac_chain is toric.toric_kac_chain, "cli binding differs from toric")
    require(toric.asymptotic_kac.__wrapped__ is cache, "lru_cache object replaced")
    quiver = sys.modules["kacdepth.quiver"].Quiver(2, ((0, 1), (0, 1)))
    hits = cache.cache_info().hits
    cli.asymptotic_kac(quiver)
    sys.modules["kacdepth.srcomplex"].asymptotic_kac(quiver)
    require(cache.cache_info().hits == hits + 1, "lru_cache no longer caches")


def main() -> int:
    work = run.HERE / "_work"
    work.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=work))
    tests = [
        ("corrupted_reference_fails", lambda: test_corrupted_reference_fails(work)),
        ("references_hold_for_two_seeds", lambda: test_references_hold_for_two_seeds(work)),
        ("report_names_every_metric", test_report_names_every_metric),
        ("wrappers_cover_every_binding", test_wrappers_cover_every_binding),
    ]
    failed = 0
    try:
        for name, test in tests:
            try:
                test()
                print(f"ok   {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
