"""Golden CLI corpus: exit code, sha256 and length of stdout for fixed argv.

The corpus covers the seed-0 jobs of the three benchmark workloads, in both
output formats, plus a few cheap extra cases (small ``rank-table`` and
``e-series`` runs, a disconnected ``kac``, guard exits, a user error, an
orbit count on K4 and a zero-fiber ``e-series`` on a 6-cycle).
Each case runs in process through ``cli.main`` with its quiver file under
``tmp_path``; no report mentions the file path, so the bytes do not depend
on where it lives.

A second corpus, ``tests/golden/help.json``, keeps the full text of every
parser's ``--help`` and of its argument errors at ``COLUMNS=80``: the top
level, the ``verify`` and ``oracle`` groups and their ten leaves.

A change that alters a report or a parser message on purpose regenerates
both files with

    PYTHONPATH=src python tests/test_golden.py

and logs the behaviour change.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from kacdepth.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli.json"
HELP = GOLDEN.with_name("help.json")

QUIVERS = {
    # shapes of the benchmark jobs, relabelled as seed 0 relabels them
    "kron12": {"vertices": 2, "arrows": [[1, 0]] * 12},
    "kron10": {"vertices": 2, "arrows": [[1, 0]] * 10},
    "doubled_k4": {
        "vertices": 4,
        "arrows": [[3, 1], [2, 0], [3, 0], [2, 1], [2, 1], [3, 1],
                   [2, 0], [3, 2], [3, 2], [1, 0], [1, 0], [3, 0]],
    },
    "k4_kac3": {"vertices": 4, "arrows": [[1, 3], [0, 3], [2, 0], [2, 1], [2, 3], [1, 0]]},
    "k4_kac6": {"vertices": 4, "arrows": [[1, 3], [0, 1], [3, 2], [1, 2], [0, 2], [0, 3]]},
    "theta_kac4": {"vertices": 4, "arrows": [[2, 3], [2, 0], [2, 1], [1, 0], [3, 0]]},
    "theta_kac6": {"vertices": 4, "arrows": [[1, 2], [0, 2], [3, 1], [3, 2], [3, 0]]},
    "doubled_triangle_kac": {
        "vertices": 3,
        "arrows": [[2, 0], [2, 0], [1, 2], [1, 0], [1, 2], [1, 0]],
    },
    "kron4_2loops_kac3": {
        "vertices": 2,
        "arrows": [[0, 1], [0, 1], [0, 0], [0, 1], [1, 1], [0, 1]],
    },
    "kron4_2loops_kac6": {
        "vertices": 2,
        "arrows": [[1, 0], [0, 0], [1, 0], [1, 0], [1, 1], [1, 0]],
    },
    "kron6": {"vertices": 2, "arrows": [[0, 1]] * 6},
    "k4_asymptotic": {"vertices": 4, "arrows": [[1, 0], [2, 0], [2, 1], [3, 2], [3, 1], [3, 0]]},
    "theta_asymptotic": {"vertices": 4, "arrows": [[3, 0], [2, 3], [1, 0], [2, 0], [2, 1]]},
    "theta_thm41": {"vertices": 4, "arrows": [[2, 0], [2, 3], [2, 1], [0, 1], [3, 1]]},
    "doubled_triangle_shelling": {
        "vertices": 3,
        "arrows": [[0, 1], [0, 1], [0, 2], [1, 2], [0, 2], [1, 2]],
    },
    "k4_zero_fiber": {"vertices": 4, "arrows": [[2, 0], [1, 0], [3, 0], [2, 1], [3, 1], [2, 3]]},
    "k4_generic_fiber": {"vertices": 4, "arrows": [[2, 1], [0, 2], [3, 0], [3, 1], [3, 2], [0, 1]]},
    "triangle_orbit": {"vertices": 3, "arrows": [[0, 2], [1, 2], [1, 0]]},
    "kron3": {"vertices": 2, "arrows": [[0, 1]] * 3},
    "kron2_reversed": {"vertices": 2, "arrows": [[1, 0]] * 2},
    "kron2": {"vertices": 2, "arrows": [[0, 1]] * 2},
    "triangle_fiber": {"vertices": 3, "arrows": [[0, 2], [2, 1], [0, 1]]},
    "a2_reversed": {"vertices": 2, "arrows": [[1, 0]]},
    "triangle_exp": {"vertices": 3, "arrows": [[1, 0], [1, 2], [0, 2]]},
    "loop1": {"vertices": 1, "arrows": [[0, 0]]},
    # extra cases
    "disconnected": {"vertices": 3, "arrows": [[0, 1], [2, 2]]},
    "malformed": {"vertices": "two"},
    "k4_orbit": {"vertices": 4, "arrows": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]},
    "cycle6": {"vertices": 6, "arrows": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]]},
}

# (quiver, argv without --quiver and --format)
CASES = [
    # chain-dp
    ("kron12", ["kac", "--alpha", "4"]),
    ("kron10", ["kac", "--alpha", "8"]),
    ("doubled_k4", ["kac", "--alpha", "3"]),
    ("k4_kac3", ["kac", "--alpha", "3"]),
    ("k4_kac6", ["kac", "--alpha", "6"]),
    ("theta_kac4", ["kac", "--alpha", "4"]),
    ("theta_kac6", ["kac", "--alpha", "6"]),
    ("doubled_triangle_kac", ["kac", "--alpha", "5"]),
    ("kron4_2loops_kac3", ["kac", "--alpha", "3"]),
    ("kron4_2loops_kac6", ["kac", "--alpha", "6"]),
    # ratfunc-limits
    ("kron6", ["asymptotic"]),
    ("k4_asymptotic", ["asymptotic"]),
    ("theta_asymptotic", ["asymptotic"]),
    ("theta_thm41", ["verify", "thm41"]),
    ("kron6", ["shelling"]),
    ("doubled_triangle_shelling", ["shelling"]),
    (None, ["rank-table", "--alpha", "5", "--g", "3"]),
    ("k4_zero_fiber", ["e-series", "--alpha", "3", "--mode", "zero-fiber", "--order", "10"]),
    ("k4_generic_fiber", ["e-series", "--alpha", "2", "--mode", "generic-fiber", "--order", "10"]),
    # fiber-oracles
    ("triangle_orbit", ["oracle", "orbit-count", "--alpha", "3", "--p", "3"]),
    ("kron3", ["oracle", "orbit-count", "--alpha", "3", "--p", "3"]),
    ("kron2_reversed", ["oracle", "orbit-count", "--alpha", "2", "--p", "2,3,5,7"]),
    ("kron2", ["oracle", "moment-fiber", "--alpha", "3", "--p", "3", "--rank=1,1"]),
    ("triangle_fiber", ["oracle", "moment-fiber", "--alpha", "2", "--p", "3", "--lam=1,-2,1"]),
    ("a2_reversed", ["verify", "generic-fiber", "--alpha", "2", "--p", "13", "--lam=-1,1"]),
    ("kron2", ["verify", "generic-fiber", "--alpha", "2", "--p", "3", "--lam=1,-1"]),
    ("triangle_exp", ["verify", "exp-identity", "--alpha", "2", "--p", "2,3", "--bound=1,1,1"]),
    ("loop1", ["verify", "exp-identity", "--alpha", "2", "--p", "2", "--bound=2"]),
    # extra cases
    (None, ["rank-table", "--g", "1", "--alpha", "3"]),
    (None, ["rank-table", "--g", "2", "--alpha", "8"]),
    ("kron2", ["e-series", "--alpha", "2", "--mode", "zero-fiber", "--order", "10"]),
    ("disconnected", ["kac", "--alpha", "2"]),
    ("kron2", ["kac", "--guard", "3"]),
    ("loop1", ["verify", "exp-identity", "--alpha", "2", "--bound=1", "--guard", "10"]),
    ("malformed", ["kac"]),
    ("k4_orbit", ["oracle", "orbit-count", "--alpha", "2", "--p", "2"]),
    ("cycle6", ["e-series", "--alpha", "2", "--mode", "zero-fiber", "--order", "10"]),
]

FORMATS = ("json", "text")


def case_key(quiver: str | None, argv: list[str], fmt: str) -> str:
    return f"{' '.join(argv)} [{quiver or '-'}] {fmt}"


def run_case(quiver: str | None, argv: list[str], fmt: str, workdir: Path) -> dict:
    """Exit code, sha256 and length of the UTF-8 stdout of one in-process call."""
    args = ["--format", fmt, *argv]
    if quiver is not None:
        path = workdir / f"{quiver}.json"
        path.write_text(json.dumps(QUIVERS[quiver]))
        args += ["--quiver", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    data = out.getvalue().encode("utf-8")
    return {"exit": code, "sha256": hashlib.sha256(data).hexdigest(), "length": len(data)}


@functools.cache
def _expected() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("quiver, argv", CASES, ids=[case_key(q, a, "") for q, a in CASES])
def test_cli_output_matches_golden(quiver, argv, fmt, tmp_path):
    assert run_case(quiver, argv, fmt, tmp_path) == _expected()[case_key(quiver, argv, fmt)]


def test_golden_file_has_exactly_the_cases():
    keys = {case_key(q, a, fmt) for q, a in CASES for fmt in FORMATS}
    assert set(_expected()) == keys


# every parser, with the arguments that complete a call below it
PARSERS = [
    ([], ["kac", "--quiver", "q.json"]),
    (["kac"], ["--quiver", "q.json"]),
    (["asymptotic"], ["--quiver", "q.json"]),
    (["verify"], ["thm41", "--quiver", "q.json"]),
    (["verify", "exp-identity"], ["--quiver", "q.json"]),
    (["verify", "generic-fiber"], ["--quiver", "q.json"]),
    (["verify", "thm41"], ["--quiver", "q.json"]),
    (["shelling"], ["--quiver", "q.json"]),
    (["rank-table"], ["--g", "1"]),
    (["e-series"], ["--quiver", "q.json"]),
    (["oracle"], ["orbit-count", "--quiver", "q.json"]),
    (["oracle", "orbit-count"], ["--quiver", "q.json"]),
    (["oracle", "moment-fiber"], ["--quiver", "q.json"]),
]

# --help; an unknown flag alone (a leaf reports its missing required flag
# first); an unknown flag in an otherwise complete call
HELP_CASES = [
    argv
    for path, rest in PARSERS
    for argv in ([*path, "--help"], [*path, "--nope"], [*path, "--nope", *rest])
]


def run_parser_case(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of a call that argparse ends; the caller
    sets COLUMNS=80."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(argv)
    return {"exit": exc.value.code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("argv", HELP_CASES, ids=[" ".join(a) for a in HELP_CASES])
def test_parser_messages_match_golden(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = json.loads(HELP.read_text())[" ".join(argv)]
    assert run_parser_case(argv) == expected


def test_help_golden_file_has_exactly_the_cases():
    assert set(json.loads(HELP.read_text())) == {" ".join(a) for a in HELP_CASES}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {
            case_key(q, a, fmt): run_case(q, a, fmt, Path(tmp))
            for q, a in CASES
            for fmt in FORMATS
        }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
    os.environ["COLUMNS"] = "80"
    messages = {" ".join(argv): run_parser_case(argv) for argv in HELP_CASES}
    HELP.write_text(json.dumps(messages, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(messages)} parser messages to {HELP}", file=sys.stderr)
