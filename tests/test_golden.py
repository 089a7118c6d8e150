"""Fixed-seed CLI output pinned byte for byte.

Each case runs one or more ``bellcheck`` commands in a fresh directory that
holds a few small circuit files.  The transcript (every command, its stdout
and stderr, and its exit code) and every file the commands write must match
the copies under ``tests/golden/<case>/`` exactly.  A refactor that claims to
keep numerical output unchanged has to leave these files as they are.

After an intended output change, regenerate the copies and review the diff:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from bellcheck.cli import main

GOLDEN = Path(__file__).parent / "golden"
TRANSCRIPT = "transcript.txt"

CIRCUITS = {
    "a.qc": "qubits 2\nH 0\nCX 0 1\nZ 1\n",
    # a.qc with an inserted self-inverse pair: equal to a.qc
    "a_rewritten.qc": "qubits 2\nH 0\nX 0\nX 0\nCX 0 1\nZ 1\n",
    "b.qc": "qubits 2\nH 0\nCX 1 0\nZ 1\n",
}

# All cases stay at d <= 16: two-qubit circuits, raw (d = 4) or embedded (d = 16).
CASES = {
    "compare_exact_embedded": [
        "compare-exact a.qc b.qc --embedded --m 2 --out exact.csv",
        "compare-exact a.qc a_rewritten.qc --embedded --m 2",
    ],
    "compare_exact_raw": [
        "compare-exact a.qc b.qc --raw --m 3 --out exact.csv",
    ],
    # m = 3 tallies include the wrapped A4B3 branch
    "compare_sampled_shots": [
        "compare-sampled a.qc b.qc --m 3 --shots 20000 --seed 5 --out sampled.csv",
    ],
    "compare_sampled_planned": [
        "compare-sampled a.qc b.qc --m 2 --epsilon 0.05 --delta 0.1 --seed 7 --out sampled.csv",
    ],
    "fig1": [
        "fig1 --samples 20 --seed 1 --include-equal-pair --out fig1.csv",
        "plot fig1.csv --x V --y D --out fig1.svg --overlay bounds --d 4 --m 2",
    ],
    "fig3": [
        "fig3 --n 2 --shots 1000 --samples 4 --seed 3 --out fig3.csv",
        "plot fig3.csv --x V_hat --y D_est --out fig3.svg --overlay exact --d 16 --m 2",
    ],
    "lemma2": [
        "lemma2 --d 16 --m 3 --delta 0.1 --samples 50 --seed 2 --out lemma2.csv",
    ],
}


def run_case(case: str, workdir: Path) -> dict[str, bytes]:
    """Run one case in ``workdir``; return the transcript and every written file."""
    for name, text in CIRCUITS.items():
        (workdir / name).write_text(text, encoding="utf-8")
    transcript = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for command in CASES[case]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(command.split())
            transcript.append(f"$ bellcheck {command}\n{out.getvalue()}{err.getvalue()}[exit {code}]\n")
    finally:
        os.chdir(cwd)
    outputs = {TRANSCRIPT: "".join(transcript).encode("utf-8")}
    for path in sorted(workdir.iterdir()):
        if path.name not in CIRCUITS:
            outputs[path.name] = path.read_bytes()
    return outputs


@pytest.mark.parametrize("case", sorted(CASES))
def test_fixed_seed_output_is_unchanged(case, tmp_path, monkeypatch):
    monkeypatch.delenv("BELLCHECK_SEED", raising=False)
    outputs = run_case(case, tmp_path)
    expected = {path.name: path.read_bytes() for path in sorted((GOLDEN / case).iterdir())}
    assert sorted(outputs) == sorted(expected)
    assert outputs[TRANSCRIPT].decode("utf-8") == expected[TRANSCRIPT].decode("utf-8")
    for name in outputs:
        assert outputs[name] == expected[name], f"{case}/{name} differs"


if __name__ == "__main__":
    os.environ.pop("BELLCHECK_SEED", None)
    for case in CASES:
        target = GOLDEN / case
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in run_case(case, Path(tmp)).items():
                (target / name).write_bytes(data)
        print(f"wrote {target}", file=sys.stderr)
