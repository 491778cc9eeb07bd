"""Crash-safe result files: write a sibling temp file, then rename."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Union

__all__ = ["atomic_write"]


@contextmanager
def atomic_write(path: Union[str, Path]) -> Iterator[IO[str]]:
    """Open a text file that replaces *path* only once the block succeeds.

    The block writes to a temp file in *path*'s directory (same file
    system, so :func:`os.replace` is an atomic rename); on a clean exit
    the temp file is flushed to disk and renamed over *path*.  If the
    block raises — say serialisation fails halfway — the temp file is
    removed and any previous *path* is left untouched, so readers see
    the old content or the new, never a prefix.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
