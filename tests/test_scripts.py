"""Smoke runs of the scripts in ``scripts/`` on small arguments."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str, code: int = 0) -> subprocess.CompletedProcess:
    """Run one script on the package sources; it must exit with code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == code, done.stderr
    return done


def write_quiver(tmp_path, vertices: int, arrows: list) -> str:
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps({"vertices": vertices, "arrows": arrows}))
    return str(path)


def test_rank_tables():
    out = run_script("rank_tables.py", "--max-g", "1", "--max-alpha", "2").stdout
    assert "  A_{1,3,2} = q^4+q^3+2q^2\n" in out
    assert out.endswith("all routes agree\n")


def test_stratum_census(tmp_path):
    path = write_quiver(tmp_path, 2, [[0, 1], [0, 1]])
    out = run_script("stratum_census.py", "--quiver", path, "--alpha", "2").stdout
    assert out.startswith("4 strata over 2 spanning trees\n")
    assert "count polynomial:  q^2+2q+1\n" in out


def test_depth_limit_experiment():
    out = run_script("depth_limit_experiment.py", "--max-alpha", "2", "--fiber-max-alpha", "1").stdout
    assert out.startswith("A_Q  = (q+1)/(q-1)   (value at q=2: 3)\n")
    assert "    2  9/4                    3/4\n" in out


# bad input ends as in ``kacdepth.cli``: one ``error:`` line on stderr and
# exit 2 (3 for a guard refusal), nothing on stdout


@pytest.mark.parametrize("p, message", [("1", "1 is not prime"), ("4", "4 is not prime")])
def test_depth_limit_experiment_refuses_a_nonprime_before_any_table(p, message):
    done = run_script("depth_limit_experiment.py", "--p", p, code=2)
    assert (done.stdout, done.stderr) == ("", f"error: {message}\n")


def test_depth_limit_experiment_refuses_a_divergent_limit(tmp_path):
    done = run_script("depth_limit_experiment.py", "--quiver", write_quiver(tmp_path, 1, []), code=2)
    assert (done.stdout, done.stderr) == ("", "error: limit does not converge\n")


def test_stratum_census_refuses_a_disconnected_quiver(tmp_path):
    done = run_script("stratum_census.py", "--quiver", write_quiver(tmp_path, 3, [[0, 1]]), code=2)
    assert (done.stdout, done.stderr) == ("", "error: toric indecomposables require connected quiver\n")


def test_rank_tables_refuses_past_the_guard():
    # a script has no --guard flag, so its message names none
    done = run_script("rank_tables.py", "--max-g", "1", "--max-alpha", "60", code=3)
    assert done.stderr == "error: rank-table estimate 18681840 > limit 16777216\n"
