"""Write references.json: the order-independent output fields of every job.

    python3 perfbench/pin_references.py

Run it only on a commit whose outputs are trusted; the references pin the
behaviour that every later benchmark run is checked against.  Jobs are run
with seed 0; selftest.py checks that other seeds give the same digests.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS, digest, make_jobs


def main() -> int:
    references = {}
    (run.HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.HERE / "_work") as tmp:
        for workload in WORKLOADS:
            jobs = make_jobs(workload, 0)
            run.write_quivers(jobs, Path(tmp))
            for job in jobs:
                _, proc = run.run_job(job, Path(tmp))
                if proc is None or proc.returncode != 0:
                    print(f"error: {job.id} did not complete", file=sys.stderr)
                    return 1
                references[job.id] = digest(json.loads(proc.stdout), job)
                print(f"pinned {job.id}")
    (run.HERE / "references.json").write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
