"""kacdepth benchmark: seeded CLI workloads timed end to end, plus a traced run.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

One client runs the jobs of a workload one at a time, each as its own fresh
``python -m kacdepth.cli --format json ...`` process (a closed loop, as a
user runs the tool), and repeats passes over the job list until ``--seconds``
are spent.  Every job's output is checked against the pinned reference in
``references.json``; a nonzero exit, ``ok: false``, a mismatch or a timeout
counts as a failed job.

``--trace 0`` reports the end-to-end metrics, with times scaled to a
reference host speed by a fixed interpreter probe (see PROBE below).
``--trace 1`` alternates an untraced pass with a pass in which every job
runs under ``trace_cli.py``, and reports per-layer metrics from the spans of
the traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full report
(header, per-job loads and latencies, metrics) is written under
``perfbench/_work/``.  The exit code is 1 if any job failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Job, digest, make_jobs  # noqa: E402

SETUP_PROBES_PER_PASS = 4
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

# The speed of a shared host drifts: a fixed CPU loop ran up to 25% faster or
# slower from one minute to the next, and sets of runs twenty minutes apart
# differed by up to 24%, with no steal time or clock change visible inside.
# A fixed probe that no change to kacdepth can alter (a fresh interpreter
# importing the standard-library modules kacdepth loads) runs before every
# job, and end-to-end times are multiplied by PROBE_NOMINAL_S over the run's
# median probe time, so they read as times on a host where the probe takes
# PROBE_NOMINAL_S (a quiet 2-core x86-64 box with Python 3.11).
PROBE = [sys.executable, "-c", "import argparse, dataclasses, fractions, functools, itertools, json, math, typing"]
PROBE_NOMINAL_S = 0.06

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_max_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Span keys whose inclusive time (outermost spans only) is reported as "<key>.s".
INCLUSIVE_KEYS = [
    "oring.ring_build",
    "toric.chain",
    "toric.trees",
    "toric.asymptotic",
    "toric.orbit",
    "srcomplex.order_complex",
    "srcomplex.shelling",
    "srcomplex.hilbert",
    "srcomplex.certificate",
    "moment.fiber",
    "moment.e_series",
    "rank.recursion",
    "rank.closed_form",
    "plethysm.exp_log",
    "series",
    "quiver.spanning_trees",
]

PER_LAYER_UNITS = {
    "laurent.poly_mul.calls": "count",
    "laurent.poly_mul.self_s": "s",
    "laurent.ratfunc_init.calls": "count",
    "laurent.poly_gcd.self_s": "s",
    "laurent.poly_gcd.s": "s",
    "laurent.self_s": "s",
    "oring.ring_build.calls": "count",
    **{f"{key}.s": "s" for key in INCLUSIVE_KEYS},
    "toric.chain.masks": "count",
    "toric.trees.strata": "count",
    "toric.orbit.points": "count",
    "toric.orbit.points_per_s": "1/s",
    "srcomplex.facets": "count",
    "moment.fiber.points": "count",
    "moment.fiber.points_per_s": "1/s",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
    "src.loc": "lines",
}


class JobFailure(Exception):
    pass


def timed(cmd: list[str], timeout: float | None = None):
    """Run one process from the checkout root; return (seconds, completed process or None on timeout)."""
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc = None
    return perf_counter() - t0, proc


def run_job(job: Job, workdir: Path, trace_prefix: str | None = None):
    """Run one job as its own process; return (seconds, completed process or None)."""
    cmd = [sys.executable]
    if trace_prefix is None:
        cmd += ["-m", "kacdepth.cli"]
    else:
        cmd += [str(HERE / "trace_cli.py"), trace_prefix]
    cmd += ["--format", "json", *job.spec.command]
    if job.quiver is not None:
        cmd += ["--quiver", str(quiver_path(job, workdir))]
    cmd += job.args
    return timed(cmd, job.timeout_s)


def check(job: Job, proc, references: dict) -> None:
    """Raise JobFailure unless the job's output matches its pinned reference."""
    if proc is None:
        raise JobFailure(f"timeout after {job.timeout_s:.0f} s")
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip()[-300:]
        raise JobFailure(f"exit code {proc.returncode}: {tail}")
    try:
        report = json.loads(proc.stdout)
        got = digest(report, job)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise JobFailure(f"unreadable report: {exc!r}") from exc
    if report.get("ok") is not True:
        raise JobFailure("report has ok != true")
    if job.id not in references:
        raise JobFailure("no pinned reference")
    if got != references[job.id]:
        raise JobFailure("output differs from the pinned reference")


def quiver_path(job: Job, workdir: Path) -> Path:
    return workdir / ("".join(c if c.isalnum() or c in "-_." else "_" for c in job.id) + ".json")


def write_quivers(jobs: list[Job], workdir: Path) -> None:
    for job in jobs:
        if job.quiver is not None:
            quiver_path(job, workdir).write_text(json.dumps(job.quiver), encoding="utf-8")


class Runner:
    """Runs passes over one workload's jobs and keeps every measurement."""

    def __init__(self, workload: str, seed: int, references: dict, workdir: Path) -> None:
        self.jobs = make_jobs(workload, seed)
        self.references = references
        self.workdir = workdir
        write_quivers(self.jobs, workdir)
        self.attempted = 0
        self.failures: list[dict] = []
        self.latencies: dict[str, list[float]] = {job.id: [] for job in self.jobs}
        self.probes: list[float] = []

    def run_pass(self, trace_dir: Path | None = None) -> dict:
        """One pass over the job list; outputs are checked after the timed loop."""
        results = []
        for n, job in enumerate(self.jobs):
            if trace_dir is None:
                self.probes.append(timed(PROBE)[0])
            prefix = None if trace_dir is None else str(trace_dir / f"{n:02d}")
            results.append(run_job(job, self.workdir, prefix))
        times = []
        for job, (seconds, proc) in zip(self.jobs, results):
            self.attempted += 1
            times.append(seconds)
            if trace_dir is None:
                self.latencies[job.id].append(seconds)
            try:
                check(job, proc, self.references)
            except JobFailure as exc:
                self.failures.append({"job": job.id, "reason": str(exc)})
        return {"wall_s": sum(times), "job_p50_s": statistics.median(times), "job_max_s": max(times)}


def measure_setup(probes: int) -> list[float]:
    """Wall time of a fresh interpreter through ``import kacdepth``."""
    out = []
    for _ in range(probes):
        seconds, proc = timed([sys.executable, "-c", "import kacdepth"], timeout=60)
        if proc is None or proc.returncode != 0:
            raise RuntimeError("import kacdepth failed or timed out")
        out.append(seconds)
    return out


def read_spans(prefix: str) -> tuple[dict, dict[str, float], dict[str, float], dict[str, int]]:
    """Load one traced job; return (meta, inclusive seconds, self seconds, calls) per key."""
    with open(prefix + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["spans"]
    arrays = [array("i"), array("i"), array("d"), array("d"), array("b")]
    with open(prefix + ".bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    keys, parents, starts, ends, outer = arrays
    child = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child[parents[i]] += ends[i] - starts[i]
    names = meta["keys"]
    inclusive = dict.fromkeys(names, 0.0)
    self_s = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    for i in range(n):
        name = names[keys[i]]
        dur = ends[i] - starts[i]
        calls[name] += 1
        self_s[name] += dur - child[i]
        if outer[i]:
            inclusive[name] += dur
    return meta, inclusive, self_s, calls


def layer_metrics(prefixes: list[str]) -> dict[str, float]:
    """Per-layer metrics summed over the traced jobs of one pass."""
    inclusive: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, int] = {}
    imports = []
    for prefix in prefixes:
        if not os.path.exists(prefix + ".json"):
            continue  # the job died before writing its spans; it is counted as failed
        meta, inc, slf, cnt = read_spans(prefix)
        imports.append(meta["import_s"])
        for src, dst in ((inc, inclusive), (slf, self_s), (cnt, calls), (meta["counters"], counters)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    m: dict[str, float] = {
        "laurent.poly_mul.calls": calls.get("laurent.poly_mul", 0),
        "laurent.poly_mul.self_s": self_s.get("laurent.poly_mul", 0.0),
        "laurent.ratfunc_init.calls": calls.get("laurent.ratfunc_init", 0),
        "laurent.poly_gcd.self_s": self_s.get("laurent.poly_gcd", 0.0),
        "laurent.poly_gcd.s": inclusive.get("laurent.poly_gcd", 0.0),
        "laurent.self_s": sum(v for k, v in self_s.items() if k.startswith("laurent.")),
        "oring.ring_build.calls": calls.get("oring.ring_build", 0),
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.import_s": statistics.median(imports) if imports else 0.0,
    }
    for key in INCLUSIVE_KEYS:
        m[f"{key}.s"] = inclusive.get(key, 0.0)
    for name in ("toric.chain.masks", "toric.trees.strata", "srcomplex.facets"):
        m[name] = counters.get(name, 0)
    for key in ("toric.orbit", "moment.fiber"):
        points = counters.get(f"{key}.points", 0)
        m[f"{key}.points"] = points
        m[f"{key}.points_per_s"] = points / m[f"{key}.s"] if m[f"{key}.s"] > 0 else 0.0
    return m


def src_loc() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src" / "kacdepth").glob("*.py")))


def git_sha() -> str:
    """HEAD of the checkout's git repository, read from .git directly; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def header(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "src_loc": src_loc(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, references: dict) -> dict:
    """Measure one workload; return the full report."""
    head = header(workload, seed, seconds, int(trace))
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        runner = Runner(workload, seed, references, workdir)
        setup, plain, traced, layers = [], [], [], []
        t0 = perf_counter()
        rounds = 0
        while True:
            if not trace:
                setup += measure_setup(SETUP_PROBES_PER_PASS)
            plain.append(runner.run_pass())
            if trace:
                trace_dir = workdir / f"trace{rounds}"
                trace_dir.mkdir()
                traced.append(runner.run_pass(trace_dir)["wall_s"])
                layers.append(layer_metrics([str(trace_dir / f"{n:02d}") for n in range(len(runner.jobs))]))
            rounds += 1
            elapsed = perf_counter() - t0
            if elapsed * (rounds + 1) / rounds > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = {name: statistics.median_low(m[name] for m in layers) for name in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(
            p["wall_s"] for p in plain
        )
        metrics["src.loc"] = head["src_loc"]
        units = PER_LAYER_UNITS
    else:
        raw = {name: statistics.median(p[name] for p in plain) for name in plain[0]}
        raw["setup_s"] = statistics.median(setup)
        raw["probe_s"] = statistics.median(runner.probes)
        scale = PROBE_NOMINAL_S / raw["probe_s"]
        metrics = {name: raw[name] * scale for name in ("wall_s", "job_p50_s", "job_max_s", "setup_s")}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        units = END_TO_END_UNITS
    return {
        "header": head,
        "passes": rounds,
        "pass_metrics": layers if trace else plain,
        "unscaled": None if trace else raw,
        "jobs": [
            {
                "id": job.id,
                "load_unit": job.load_unit,
                "load": job.load,
                "est_s": job.spec.est_s,
                "latency_s": runner.latencies[job.id],
            }
            for job in runner.jobs
        ],
        "failures": runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def print_report(report: dict) -> None:
    head = report["header"]
    print(
        f"# {head['workload']} seed={head['seed']} trace={head['trace']} sha={head['git_sha']} "
        f"python={head['python']} nproc={head['nproc']} loadavg={head['loadavg']} "
        f"src_loc={head['src_loc']} passes={report['passes']}"
    )
    for job in report["jobs"]:
        load = f"{job['load']} {job['load_unit']}" if job["load_unit"] else "-"
        lat = statistics.median(job["latency_s"])
        print(f"  job {job['id']:<48} load {load:<18} median {lat:.4f} s")
    for failure in report["failures"]:
        print(f"  FAILED {failure['job']}: {failure['reason']}")
    if report["unscaled"]:
        raw = report["unscaled"]
        print("  unscaled: " + ", ".join(f"{k} {v:.4f} s" for k, v in raw.items())
              + f" (times below are scaled by {PROBE_NOMINAL_S} / probe_s)")
    fail_ratio = report["failed"] / report["attempted"]
    print(f"  fail_ratio = {fail_ratio:.4f} ({report['failed']}/{report['attempted']} jobs)")
    for name, m in report["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


def result_line(report: dict) -> dict:
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }


def load_references() -> dict:
    with open(HERE / "references.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kacdepth" / "cli.py").is_file():
        print(f"error: no kacdepth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), load_references())
    out = HERE / "_work" / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print_report(report)
    print(json.dumps(result_line(report)))
    return 0 if report["failed"] == 0 else 1


def run_all(args) -> int:
    """Every workload in its own driver process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: {workload} run ended with code {proc.returncode}: {proc.stderr[-300:]}",
                  file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
