"""Output encoding and atomic file replacement for every output writer.

A writer fills a temporary file in the target's directory, which is renamed
over the target with ``os.replace`` only once the writer has finished. An
interrupted or failing write therefore leaves the previous file (or none)
in place, never a truncated one, and removes its temporary file. The rename
guards against interrupted runs; no ``fsync`` is done, so it does not make
the data durable across a power loss.

Tables are encoded here and nowhere else. ``write_csv`` writes UTF-8 CSV with
``\\n`` line ends; ``csv`` writes a float as its ``repr`` (shortest round-trip
digits) and ``None`` as an empty field, so writers hand over plain values.
``write_jsonl`` writes one compact JSON document per line, non-ASCII text
unescaped. ``write_json`` writes one JSON document indented by two spaces, keys
sorted, non-ASCII text escaped.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence


@contextmanager
def atomic_open(path: str | Path, mode: str = "w", **kwargs) -> Iterator[IO]:
    """``open(path, mode, **kwargs)`` for writing, replacing ``path`` atomically
    when the block completes without an exception."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """One CSV table: the header row, then ``rows``."""
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_jsonl(path: str | Path, docs: Iterable) -> None:
    """One compact JSON document per line."""
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for doc in docs:
            fh.write(json.dumps(doc, separators=(",", ":"), ensure_ascii=False) + "\n")


def write_json(path: str | Path, doc) -> None:
    """One JSON document, indented, keys sorted, with a final newline."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
