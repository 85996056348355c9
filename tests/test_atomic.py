"""Output writers replace their target atomically."""

from __future__ import annotations

import pytest

from sessionvalue.atomic import atomic_open, write_csv, write_json
from sessionvalue.corpus import read_sessions, write_sessions

from helpers import mk_session


def test_block_completes_then_replaces(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("new\n")
        assert path.read_text() == "old\n"
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_writer_failing_mid_write_keeps_previous_file(tmp_path):
    def then_crash(*items):
        yield from items
        raise RuntimeError("interrupted")

    sessions = tmp_path / "sessions.jsonl"
    write_sessions([mk_session("a", ["A", "B"])], sessions)
    table = tmp_path / "table.csv"
    write_csv(table, ("x", "y"), [(1, 0.5)])
    before = {path: path.read_bytes() for path in (sessions, table)}

    with pytest.raises(RuntimeError, match="interrupted"):
        write_sessions(then_crash(mk_session("b", ["C"])), sessions)
    with pytest.raises(RuntimeError, match="interrupted"):
        write_csv(table, ("x", "y"), then_crash((2, 0.25)))
    assert {path: path.read_bytes() for path in before} == before
    assert [s.session_id for s in read_sessions(sessions)] == ["a"]
    assert table.read_text() == "x,y\n1,0.5\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sessions.jsonl", "table.csv"]


def test_failed_first_write_leaves_nothing(tmp_path):
    with pytest.raises(KeyboardInterrupt):
        with atomic_open(tmp_path / "out.bin", "wb") as fh:
            fh.write(b"partial")
            raise KeyboardInterrupt
    assert list(tmp_path.iterdir()) == []


def test_json_document_indented_with_sorted_keys(tmp_path):
    path = tmp_path / "summary.json"
    write_json(path, {"b": 0.5, "a": [1, "é"]})
    assert path.read_bytes() == b'{\n  "a": [\n    1,\n    "\\u00e9"\n  ],\n  "b": 0.5\n}\n'
