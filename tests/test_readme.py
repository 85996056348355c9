"""The README, run as code.

The library example is executed, every ``sessionvalue`` line of the Quick
start runs in process on a copy of ``configs/smoke.yaml`` and must write the
files the output table documents, and the configuration table must name the
sections and dataclasses ``config`` reads. So a changed signature, command,
option, output file or config section fails here, not in a reader's shell.
The README and every file of the package's source state contracts, not
measurements: a timing (a number followed by ``s``, ``ms`` or ``µs``) is
refused, since its hardware and method live in ``CHANGES.md``.
"""

from __future__ import annotations

import importlib
import json
import re
import shlex
import shutil
import types
import typing
from pathlib import Path

from click.testing import CliRunner

from sessionvalue import config
from sessionvalue.cli import main

from conftest import SMOKE_CONFIG

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = README.parent / "src" / "sessionvalue"
TIMING = re.compile(r"\d(?:[\d.,]*\d)?\s*(?:ms|µs|s)\b")


def section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def fenced(text: str, lang: str) -> str:
    (block,) = re.findall(rf"^```{lang}\n(.*?)^```$", text, re.S | re.M)
    return block


def table(text: str) -> list[list[str]]:
    """The body rows of the section's table, as cells."""
    rows = [line for line in text.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows[2:]]


def spans(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)


def resolve(dotted: str):
    module, name = dotted.split(".")
    return getattr(importlib.import_module(f"sessionvalue.{module}"), name)


def test_library_example_runs(capsys):
    code = fenced(section("Library use"), "python")
    exec(compile(code, f"{README}:Library use", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 4  # one line per sampled session


def test_quick_start_commands_write_the_files_they_document(tmp_path):
    smoke = shutil.copy(SMOKE_CONFIG, tmp_path / "smoke.yaml")
    out = tmp_path / "out"
    documented = {spans(command)[0]: files for command, files in table(section("Output files"))}
    lines = [line for line in fenced(section("Quick start"), "bash").splitlines()
             if line.startswith("sessionvalue ")]
    assert lines
    runner = CliRunner()
    for line in lines:
        args = shlex.split(line)[1:]
        args[args.index("--config") + 1] = str(smoke)
        args[args.index("--out") + 1] = str(out)
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (line, result.output)
        json.loads(result.stdout)  # the run summary
        engine = args[args.index("--engine") + 1] if "--engine" in args else None
        files = [name.format(engine=engine) for name in spans(documented[args[0]]) if "." in name]
        assert files and all((out / name).is_file() for name in files), (line, files)


def test_the_output_table_lists_every_command():
    assert {spans(row[0])[0] for row in table(section("Output files"))} == set(main.commands)


def test_the_config_table_names_what_config_reads():
    rows = table(section("Configuration"))
    assert {spans(row[0])[0] for row in rows} == set(config._TOP_LEVEL) - {"output_dir", "paths"}
    hints = typing.get_type_hints(config.RunConfig)
    for section_cell, dataclass_cell in rows:
        name = spans(section_cell)[0]
        read_into = hints["hyper" if name == "embed" else name]
        if typing.get_origin(read_into) is types.UnionType:  # X | None
            (read_into,) = [arg for arg in typing.get_args(read_into) if arg is not type(None)]
        dotted = [span for span in spans(dataclass_cell) if re.fullmatch(r"[a-z]+\.\w+", span)]
        assert resolve(dotted[0]) is read_into, name
        for other in dotted[1:]:
            resolve(other)


def timed_lines(path: Path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [f"{path.name}:{n}: {line}" for n, line in enumerate(lines, 1) if TIMING.search(line)]


def test_the_readme_holds_no_timing():
    assert timed_lines(README) == []


def test_the_package_source_holds_no_timing():
    """Every file under ``src/sessionvalue/``: code, docstrings, comments and
    the C kernel's header."""
    files = sorted(p for p in PACKAGE.iterdir() if p.is_file())
    assert any(p.suffix == ".c" for p in files)
    assert [line for path in files for line in timed_lines(path)] == []


def test_the_timing_pattern():
    for timed in ("took 0.22 s", "2.6s in all", "38-55 ms", "from 0.3 s to 0.04 s", "44 µs"):
        assert TIMING.search(timed), timed
    for plain in ("200 dimensions", "5 sessions", "`--jobs 4`", "1,000-session corpus", "k=5"):
        assert not TIMING.search(plain), plain
