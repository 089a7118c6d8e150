"""The command-line contract, on inputs the test makes itself.

A seeded stdlib ``random`` generator mutates valid circuit files, plot CSVs
and argvs (token edits; extreme and non-finite numbers; empty and repeated
columns; a byte-order mark and non-UTF-8 bytes), every size option is
also tried at 0, 1, 2^63 and 10^300, and every integer option at ``+1``,
``1_000``, ``٣`` and ``１``, which argparse must refuse by the option's
name.  Each case runs ``cli.main`` in-process with 32 MiB of physical
memory, and must keep the README's promises:

- the exit code is 0, 1 or 2;
- on exit code 2, stderr is one ``error:`` line (after argparse's usage
  lines, for a usage error) and holds no traceback;
- no warning is raised;
- every SVG written parses as XML and holds no ``nan`` or ``inf``;
- a request refused for its size gets the ``check_memory`` or
  ``check_width`` sentence, never numpy's ``Unable to allocate`` and never
  a bare ``MemoryError``.

Warnings are recorded with ``warnings.catch_warnings(record=True)``: under
pytest's ``filterwarnings = error`` a warning inside ``cli.main`` would become
an exception that ``main`` reports as exit code 2, hiding the fault.

``fig1 --samples`` is tried only at 0, 1 and 2: fig1 streams its rows and keeps
nothing per sample, so 2^63 or 10^300 samples is valid unbounded work, not a
request to refuse.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from bellcheck import cli, tensor

SEED = 25
RANDOM_CASES = 240
SIZES = ["0", "1", str(2**63), str(10**300)]
PAGES = {"SC_PHYS_PAGES": 2**13, "SC_PAGE_SIZE": 4096}  # 32 MiB of physical memory

CIRCUITS = [
    "qubits 1\nH 0\nZ 0\n",
    "# a comment\nqubits 2\nH 0\nCX 0 1  # entangle\nSWAP 0 1\nCZ 1 0\n",
    "qubits 3\nTOFFOLI 0 1 2\nH 2\nX 1\nCX 2 0\n",
]
CIRCUIT_TOKENS = ["0", "1", "2", "3", "9", "-1", "+1", "0_1", "٢", "１", "1.0", "1e3",
                  "0x1", "nan", "qubits", "H", "CX", "TOFFOLI", "Y", "#", "9" * 30, *SIZES]
CSV_HEADER = ["pair_id", "V", "D", "lower", "upper"]
CSV_CELLS = ["1e308", "-1e308", "1.79e308", "-1.79e308", "nan", "inf", "-inf", "", "1e20",
             "abc", "1_0", "٣", "0x10", " 2 ", "1e-320", "5e-324", "-0.0"]
ARG_TOKENS = ["--m", "--d", "--out", "--seed", "--embedded", "--x", "V", "-1", "nan", "",
              "1_000", *SIZES]


def circuit_bytes(rng: random.Random, text: str) -> bytes:
    """``text`` after one or two edits of its tokens, lines or encoding."""
    lines = [line.split() for line in text.splitlines()]
    data = None
    for _ in range(rng.randint(1, 2)):
        row = rng.choice(lines) if lines else []
        edit = rng.randrange(7)
        if edit == 0 and row:
            row[rng.randrange(len(row))] = rng.choice(CIRCUIT_TOKENS)
        elif edit == 1 and row:
            del row[rng.randrange(len(row))]
        elif edit == 2 and lines:
            lines.insert(rng.randrange(len(lines)), list(row))
        elif edit == 3 and lines:
            lines.remove(row)
        elif edit == 4:
            data = b"\xef\xbb\xbf"
        elif edit == 5:
            data = b"\xff"
        else:
            lines = []
    body = "\n".join(" ".join(row) for row in lines).encode()
    if data == b"\xff" and body:
        cut = rng.randrange(len(body))
        return body[:cut] + data + body[cut:]
    return (data or b"") + body


def csv_bytes(rng: random.Random, plotted: list[str]) -> bytes:
    """A small fig1-shaped CSV after one or two edits of its cells, columns or encoding;
    a column edit mostly hits a ``plotted`` column."""
    header = list(CSV_HEADER)
    rows = [[str(i), repr(rng.uniform(-2, 6)), repr(rng.random()), repr(rng.random()),
             repr(rng.random())] for i in range(rng.randint(1, 5))]
    prefix = b""
    for _ in range(rng.randint(1, 2)):
        edit = rng.choice([0, 0, 1, 1, 1, 2, 3, 4, 5, 6, 7])
        name = rng.choice(plotted if rng.random() < 0.75 else header)
        column = header.index(name) if name in header else rng.randrange(len(header))
        full = [row for row in rows if len(row) > column]  # not blank, not shortened
        if edit == 0 and full:
            rng.choice(full)[column] = rng.choice(CSV_CELLS)
        elif edit == 1:  # a constant, empty or extreme column
            cells = rng.choice([["1e20"], [""], ["1e308", "-1e308"], ["1.79e308", "-1.79e308"]])
            for k, row in enumerate(full):
                row[column] = cells[k % len(cells)]
        elif edit == 2:  # a repeated column name: the last column of that name is read
            header.append(header[column])
            for row in rows:
                row.append(rng.choice(CSV_CELLS))
        elif edit == 3 and full:
            rng.choice(full).pop()
        elif edit == 4:
            rows.insert(rng.randrange(len(rows) + 1), [])
        elif edit == 5:
            prefix = b"\xef\xbb\xbf"
        elif edit == 6:
            prefix = b"\xff"
        else:
            rows = []
    text = "\n".join(",".join(row) for row in [header, *rows]) + "\n"
    return prefix + text.encode()


def argv_edit(rng: random.Random, argv: list[str]) -> list[str]:
    """``argv`` with one token dropped, repeated or replaced (the command name stays)."""
    argv = list(argv)
    at = rng.randrange(1, len(argv))
    edit = rng.randrange(3)
    if edit == 0:
        del argv[at]
    elif edit == 1:
        argv.insert(at, argv[at])
    else:
        argv[at] = rng.choice(ARG_TOKENS)
    return argv


def circuit_case(rng: random.Random) -> tuple[list[str], dict[str, bytes]]:
    base = rng.choice(CIRCUITS)
    files = {"a": circuit_bytes(rng, base) if rng.random() < 0.8 else base.encode(),
             "b": circuit_bytes(rng, base) if rng.random() < 0.5 else base.encode()}
    m = rng.choice(["2", "3", *SIZES])
    if rng.random() < 0.5:
        argv = ["compare-exact", "{a}", "{b}", "--m", m, "--out", "{out}.csv"]
        if rng.random() < 0.5:
            argv.append("--embedded")
    else:
        argv = ["compare-sampled", "{a}", "{b}", "--m", m, "--seed", "1"]
        if rng.random() < 0.5:
            argv += ["--shots", rng.choice(["10", "100", *SIZES])]
        else:
            argv += ["--epsilon", rng.choice(["0.1", "0.05", "0", "nan", "1e-300"]),
                     "--delta", rng.choice(["0.1", "0.5", "1", "nan", "1e-300"])]
    return argv, files


def plot_case(rng: random.Random) -> tuple[list[str], dict[str, bytes]]:
    x, y = rng.choice(CSV_HEADER), rng.choice([*CSV_HEADER, "W"])
    argv = ["plot", "{csv}", "--x", x, "--y", y, "--out", "{out}.svg"]
    if rng.random() < 0.5:
        argv += ["--overlay", rng.choice(["bounds", "exact"]),
                 "--d", rng.choice(["4", "4", "16", *SIZES]),
                 "--m", rng.choice(["2", "2", "3", *SIZES])]
    return argv, {"csv": csv_bytes(rng, [x, y])}


def dataset_case(rng: random.Random) -> tuple[list[str], dict[str, bytes]]:
    command = rng.choice(["fig1", "fig3", "lemma2"])
    argv = [command, "--seed", rng.choice(["1", "0", str(2**63)]), "--out", "{out}.csv"]
    if command == "fig1":
        return argv + ["--samples", rng.choice(["0", "1", "2"])], {}
    argv += ["--samples", rng.choice(["2", *SIZES])]
    if command == "fig3":
        return argv + ["--n", rng.choice(["1", "2", "0", "4"]),
                       "--shots", rng.choice(["100", "1000", "0"])], {}
    return argv + ["--d", rng.choice(["4", "16", *SIZES]), "--m", rng.choice(["2", *SIZES]),
                   "--delta", rng.choice(["0.1", "0.5", "0", "nan", "1e-300"])], {}


def size_cases() -> list[tuple[list[str], dict[str, bytes], bool]]:
    """Each size option at each of ``SIZES``, the rest of its request valid; the flag
    marks a request whose size must be refused by the memory or width sentence."""
    pair = {"a": CIRCUITS[1].encode(), "b": CIRCUITS[1].encode()}
    csv = {"csv": b"pair_id,V,D\n0,1,0.5\n1,2,0.25\n"}
    plot = ["plot", "{csv}", "--x", "V", "--y", "D", "--out", "{out}.svg"]
    exact = ["compare-exact", "{a}", "{b}"]
    sampled = ["compare-sampled", "{a}", "{b}", "--seed", "1"]
    fig3 = ["fig3", "--n", "1", "--shots", "100", "--seed", "1", "--out", "{out}.csv"]
    lemma2 = ["lemma2", "--delta", "0.1", "--seed", "1", "--out", "{out}.csv"]
    cases = []
    for size in SIZES:
        huge = len(size) > 1
        header = {"a": f"qubits {size}\nH 0\n".encode(), "b": f"qubits {size}\nZ 0\n".encode()}
        cases += [
            (exact + ["--embedded", "--m", size], pair, False),
            (exact + ["--raw"], header, huge),
            (exact + ["--embedded"], header, huge),
            (sampled + ["--m", size, "--shots", "10"], pair, huge),
            (sampled + ["--shots", size], pair, False),
            (sampled + ["--shots", "10"], header, huge),
            (fig3 + ["--samples", size], {}, huge),
            (lemma2 + ["--d", size, "--samples", "2"], {}, huge),
            (lemma2 + ["--d", "4", "--m", size, "--samples", "2"], {}, False),
            (lemma2 + ["--d", "4", "--samples", size], {}, huge),
            (plot + ["--overlay", "bounds", "--d", size, "--m", "2"], csv, False),
            (plot + ["--overlay", "exact", "--d", "4", "--m", size], csv, False),
        ]
    return cases + [(["fig1", "--samples", size, "--seed", "1", "--out", "{out}.csv"], {}, False)
                    for size in SIZES[:2]]


def random_cases() -> list[tuple[list[str], dict[str, bytes], bool]]:
    rng = random.Random(SEED)
    cases = []
    for _ in range(RANDOM_CASES):
        argv, files = rng.choice([circuit_case, plot_case, dataset_case])(rng)
        cases.append((argv_edit(rng, argv) if rng.random() < 0.2 else argv, files, False))
    return cases


INTEGER_SPELLINGS = ["+1", "1_000", "٣", "１"]  # int reads each; the ASCII-decimal rule none


def integer_options() -> set[tuple[str, str]]:
    """Every (command, option) whose value the parser reads with ``tensor.integer``."""
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {(name, action.option_strings[0]) for name, sub in commands.choices.items()
            for action in sub._actions if action.type is tensor.integer}


def spelling_cases() -> list[tuple[list[str], dict[str, bytes], str, str]]:
    """Each integer option of each command, the rest of its request valid, at each of
    ``INTEGER_SPELLINGS``: (argv, files, the option, the spelling it must refuse)."""
    pair = {"a": CIRCUITS[1].encode(), "b": CIRCUITS[1].encode()}
    csv = {"csv": b"pair_id,V,D\n0,1,0.5\n1,2,0.25\n"}
    requests = [
        (["compare-exact", "{a}", "{b}", "--m", "2"], pair),
        (["compare-sampled", "{a}", "{b}", "--m", "2", "--shots", "10", "--seed", "1"], pair),
        (["fig1", "--samples", "1", "--seed", "1", "--out", "{out}.csv"], {}),
        (["fig3", "--n", "1", "--shots", "100", "--samples", "1", "--seed", "1",
          "--out", "{out}.csv"], {}),
        (["lemma2", "--d", "4", "--m", "2", "--delta", "0.1", "--samples", "1", "--seed", "1",
          "--out", "{out}.csv"], {}),
        (["plot", "{csv}", "--x", "V", "--y", "D", "--out", "{out}.svg", "--overlay", "bounds",
          "--d", "4", "--m", "2"], csv),
    ]
    options = integer_options()
    return [(argv[:at + 1] + [spelling] + argv[at + 2:], files, option, spelling)
            for argv, files in requests for at, option in enumerate(argv)
            if (argv[0], option) in options for spelling in INTEGER_SPELLINGS]


SPELLING_CASES = spelling_cases()
CASES = size_cases() + random_cases() + [(argv, files, False)
                                         for argv, files, _, _ in SPELLING_CASES]
SIZE_SENTENCE = re.compile(r"error: .+ needs (about \S+ GiB|more than 2\^\d+ bytes), "
                           r"more than the \S+ GiB of physical memory\n")


@pytest.mark.parametrize("argv,files,sized", CASES,
                         ids=[f"case{k}" for k in range(len(CASES))])
def test_cli_keeps_its_contract(argv, files, sized, tmp_path, monkeypatch, capsys):
    paths = {"out": str(tmp_path / "out")}
    for name, data in files.items():
        paths[name] = str(tmp_path / name)
        Path(paths[name]).write_bytes(data)
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    monkeypatch.setattr(os, "sysconf", lambda name: PAGES[name])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2)
    if code == 2:
        error_lines = [line for line in err.splitlines() if "error:" in line]
        assert len(error_lines) == 1, err
        if not err.startswith("usage:"):  # argparse prints its usage lines first
            assert err == error_lines[0] + "\n" and err.startswith("error: ")
        assert "Traceback" not in err
        assert "Unable to allocate" not in err and "MemoryError" not in err
    if sized:
        assert code == 2 and SIZE_SENTENCE.fullmatch(err), err
    if code != 2:
        assert err == ""
    for svg in tmp_path.glob("*.svg"):
        text = svg.read_text(encoding="utf-8")
        ET.fromstring(text)
        assert "nan" not in text.lower() and "inf" not in text.lower()


def test_every_integer_option_is_spelled():
    assert {(argv[0], option) for argv, _, option, _ in SPELLING_CASES} == integer_options()
    assert len(integer_options()) == 16


@pytest.mark.parametrize("argv,files,option,spelling", SPELLING_CASES,
                         ids=[f"{argv[0]}{option}-{k}" for k, (argv, _, option, _)
                              in enumerate(SPELLING_CASES)])
def test_integer_spellings_are_refused(argv, files, option, spelling, tmp_path, capsys):
    paths = {"out": str(tmp_path / "out")}
    for name, data in files.items():
        paths[name] = str(tmp_path / name)
        Path(paths[name]).write_bytes(data)
    assert cli.main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {option}: invalid integer value: {spelling!r}\n"), err
    assert not list(tmp_path.glob("out*"))
