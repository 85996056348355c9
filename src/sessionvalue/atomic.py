"""Atomic file replacement for every output writer.

A writer fills a temporary file in the target's directory, which is renamed
over the target with ``os.replace`` only once the writer has finished. An
interrupted or failing write therefore leaves the previous file (or none)
in place, never a truncated one, and removes its temporary file. The rename
guards against interrupted runs; no ``fsync`` is done, so it does not make
the data durable across a power loss.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


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
