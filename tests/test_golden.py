"""Golden CLI corpus: each case of ``golden_corpus`` against the files.

``tests/golden_corpus.py`` holds the cases, documents them, and regenerates
or checks both files without pytest.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden_corpus import CASES, FORMATS, GOLDEN, HELP, HELP_CASES, case_key, run_case, run_parser_case


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


@pytest.mark.parametrize("argv", HELP_CASES, ids=[" ".join(a) for a in HELP_CASES])
def test_parser_messages_match_golden(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = json.loads(HELP.read_text())[" ".join(argv)]
    assert run_parser_case(argv) == expected


def test_help_golden_file_has_exactly_the_cases():
    assert set(json.loads(HELP.read_text())) == {" ".join(a) for a in HELP_CASES}


def test_corpus_module_imports_no_pytest():
    # ``golden_corpus.py --check`` runs on interpreters that have no pytest
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"))
    code = "import sys, golden_corpus; print('pytest' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], cwd=tests, env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"
