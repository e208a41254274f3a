"""Smoke runs of the scripts in ``scripts/`` on small arguments."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_rank_tables():
    out = run_script("rank_tables.py", "--max-g", "1", "--max-alpha", "2")
    assert "  A_{1,3,2} = q^4+q^3+2q^2\n" in out
    assert out.endswith("all routes agree\n")


def test_stratum_census(tmp_path):
    path = tmp_path / "kronecker2.json"
    path.write_text(json.dumps({"vertices": 2, "arrows": [[0, 1], [0, 1]]}))
    out = run_script("stratum_census.py", "--quiver", str(path), "--alpha", "2")
    assert out.startswith("4 strata over 2 spanning trees\n")
    assert "count polynomial:  q^2+2q+1\n" in out


def test_depth_limit_experiment():
    out = run_script("depth_limit_experiment.py", "--max-alpha", "2", "--fiber-max-alpha", "1")
    assert out.startswith("A_Q  = (q+1)/(q-1)   (value at q=2: 3)\n")
    assert "    2  9/4                    3/4\n" in out
