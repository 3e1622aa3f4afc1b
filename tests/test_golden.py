"""Byte-identical CLI reports against the committed golden corpus.

Each case's stdout is compared with ``tests/golden/<name>.<json|csv>``.
The cases are the README examples plus the commands that reach every
three-term recurrence the CLI can run.  To regenerate the corpus after an
intended output change, run ``PYTHONPATH=src python tests/test_golden.py``:
it rewrites the goldens whose bytes changed and prints their names (or "no
golden moved").  Review the diff.

``tests/golden/corpus.json`` holds a wider set of argv, each with the
sha256 of its exit status and stdout.  Most were drawn once from the
seeded ``cli-pipelines`` decks of the benchmark (seed 1, every command but
the Parseval integrals); the rest were added by hand: float ``tridiag``
with and without ``--q`` (and one past the float range, at exit 1), the ``families --eval`` and ``--bochner`` paths,
the failing argv of ``test_exit_contract.py``, Gauss rules up to n = 256
(n = 1000 for Legendre), ``families --recurrence`` for every family
kind, in p/q and in decimal spelling, ``lame --spectrum`` of blocks up to
m = 200 and ``morse --residual`` at b = 3999/4.
``PYTHONPATH=src python tests/test_golden.py --corpus`` rewrites the
digests and prints each argv whose digest moved (or "no digest moved").
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from jmatrix.cli import main

GOLDEN = Path(__file__).parent / "golden"
CORPUS = GOLDEN / "corpus.json"

CASES = {
    "morse_levels": ["morse", "--b", "2.25", "--levels"],
    "morse_identity": ["morse", "--b", "9/4", "--identity", "0"],
    "morse_parseval_5_5": ["morse", "--b", "2.25", "--parseval", "5", "5"],
    "lame_spectrum": ["lame", "--e", "3,-1,-2", "--m", "2", "--spectrum"],
    "lame_residuals": ["lame", "--e", "3,-1,-2", "--m", "2", "--residuals", "10"],
    "lame_diagnostic": ["lame", "--e", "3,-1,-2", "--m", "3/2", "--diagnostic", "500"],
    "lame_spectrum_k4": ["lame", "--e", "5,-2,-3", "--m", "8", "--spectrum"],
    "lame_orthonormal": ["lame", "--e", "3,-1,-2", "--m", "7/2", "--orthonormal", "12"],
    "lame_diagnostic_small_alpha": [
        "lame", "--e", "9/20,-11/20,1/10", "--m", "3/2", "--diagnostic", "200"
    ],
    "tridiag": ["tridiag", "--A", "0,0,0,1", "--B", "0,0,1", "--C", "0,1", "--n", "10"],
    "tridiag_q": [
        "tridiag", "--A", "1,0,0,1/2", "--B", "0,0,1/3", "--C", "1/5,1", "--q", "2/3", "--n", "30"
    ],
    "tridiag_rational": [
        "tridiag", "--A", "1/3,2/5,-3/7,5/4", "--B", "1/2,3,2/3", "--C", "1,1/5", "--n", "30"
    ],
    "quad_csv": ["--out", "csv", "quad", "--family", "jacobi:0,0", "--n", "20"],
    "verify_two": ["verify", "--suite", "quadrature", "morse-expansion"],
    "morse_residual": ["morse", "--b", "9/4", "--residual", "8"],
    "morse_parseval_3_7": ["morse", "--b", "19/5", "--parseval", "3", "7"],
    "morse_parseval_deepest": ["morse", "--b", "17/3", "--parseval", "10", "10"],
    "morse_parseval_one_bound_state": ["morse", "--b", "4/5", "--parseval", "0", "9"],
    "morse_bands_19_5": [
        "morse", "--b", "19/5", "--levels", "--tridiag", "12", "--residual", "6", "--identity", "1"
    ],
    "families_jacobi_eval": ["families", "--family", "jacobi:1/2,-1/4", "--n", "8", "--eval", "1/3"],
    "families_laguerre_float_eval": [
        "--mode", "float", "families", "--family", "laguerre:1/2", "--n", "8", "--eval", "1.5"
    ],
}


def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.{'csv' if 'csv' in CASES[name] else 'json'}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("JMATRIX_MODE", raising=False)
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == golden_path(name).read_text()


def digest(argv) -> str:
    """sha256 of the exit status and stdout of ``jmatrix argv``, run in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = main(argv)
    return hashlib.sha256(f"{status}\n{out.getvalue()}".encode()).hexdigest()


def test_corpus_digests(monkeypatch):
    monkeypatch.delenv("JMATRIX_MODE", raising=False)
    cases = json.loads(CORPUS.read_text())
    assert [" ".join(case["argv"]) for case in cases if digest(case["argv"]) != case["sha256"]] == []


def regenerate_corpus() -> list:
    """Rewrite the corpus digests; return the argv whose digest moved."""
    cases = json.loads(CORPUS.read_text())
    moved = []
    for case in cases:
        new = digest(case["argv"])
        if new != case["sha256"]:
            moved.append(" ".join(case["argv"]))
            case["sha256"] = new
    CORPUS.write_text("[\n" + ",\n".join(json.dumps(case) for case in cases) + "\n]\n")
    return moved


if __name__ == "__main__":
    import os

    os.environ.pop("JMATRIX_MODE", None)
    if sys.argv[1:] == ["--corpus"]:
        moved = regenerate_corpus()
        print("\n".join(moved) if moved else "no digest moved")
        sys.exit()
    moved = []
    for name, argv in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            if main(argv) != 0:
                sys.exit(f"{name}: nonzero exit")
        path = golden_path(name)
        if not path.exists() or path.read_text() != buf.getvalue():
            moved.append(name)
            path.write_text(buf.getvalue())
    print("\n".join(moved) if moved else "no golden moved")
